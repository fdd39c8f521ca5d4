package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// workload is one benchmark input set. Every workload is one closed-loop
// client in one process: the next operation starts when the previous one
// has finished.
type workload struct {
	name string
	// spec is the campaign spec at a seed. For paper-quick, which is
	// seed-independent, it is the probe spec the layer probes run on.
	spec func(seed int) serve.Spec
	// run is the untraced end-to-end run over the specs runSpecs gives.
	run func(b *bench, specs []serve.Spec) error
	// unit runs one cold unit of the workload, traced when tr is non-nil,
	// and returns the CPU time in which its sites settled.
	unit func(b *bench, spec serve.Spec, tr *tracer) (time.Duration, error)
}

var workloads []*workload

func init() {
	workloads = []*workload{
		{name: "stuckat-replay", spec: stuckatSpec, run: runCampaigns, unit: campaignUnit},
		{name: "transition-solo", spec: transitionSpec, run: runCampaigns, unit: campaignUnit},
		{name: "service", spec: transitionSpec, run: runService, unit: serviceUnit},
		{name: "paper-quick", spec: paperProbeSpec, run: runPaper, unit: paperUnit},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runSpecs are the specs of an untraced run: the workload's spec for both
// cores, the core under test seed mod 2 first. Core B's golden runs are
// longer than core A's, which makes its set-up and cached reruns up to ~30%
// slower. A run over one core gave medians that jumped between two levels
// with the parity of the seed, so every untraced run measures both cores
// and reports the mean of the two cores' medians.
func runSpecs(w *workload, seed int) []serve.Spec {
	return []serve.Spec{w.spec(seed), w.spec(seed + 1)}
}

// stuckatSpec: every stuck-at site is a full replay of an uncached core
// fetching from flash against two traffic replayers.
func stuckatSpec(seed int) serve.Spec {
	return serve.Spec{Routine: "forwarding", Core: seed % 2, Strategy: "plain", Multicore: true}
}

// transitionSpec: a cached single-master transition campaign, where most
// sites take a checkpoint shortcut.
func transitionSpec(seed int) serve.Spec {
	return serve.Spec{Routine: "forwarding", Core: seed % 2, Strategy: "cache", Faults: "transition"}
}

// paperProbeSpec is the spec form of the quick Table II campaigns
// (forwarding logic, cache strategy, three cores, every 8th data bit),
// which with Table III make up most of the quick suite.
func paperProbeSpec(int) serve.Spec {
	return serve.Spec{Routine: "forwarding", Core: 0, Strategy: "cache", Multicore: true, BitStep: 8}
}

// cachedPerCold is the number of cached reruns after each cold unit of the
// spec and service workloads; with ~20 cold units per run it gives the
// several hundred cached samples a p95 with ten samples beyond it needs.
const cachedPerCold = 12

// cachedSuitesPerCold is the number of cached quick-suite reruns after each
// cold suite. The set-up steps simulate no fault campaign, so the journals
// do not shorten them: every suite, cold or cached, gives a setup_s sample.
const cachedSuitesPerCold = 3

const mb = 1 << 20

// samples are the per-unit measurements of one spec in an untraced run.
// Times are CPU times (see cpuNow); wallCold keeps the wall time of the
// cold units for the report's notes.
type samples struct {
	setup, cold, rate, cached, alloc, live, wallCold []float64
}

// report sets each end-to-end metric to the mean over the specs of the
// median of their samples.
func report(b *bench, ms []*samples) {
	avg := func(f func(*samples) []float64) float64 {
		var t float64
		for _, m := range ms {
			t += median(f(m))
		}
		return t / float64(len(ms))
	}
	b.set("setup_s", avg(func(m *samples) []float64 { return m.setup }))
	b.set("job_cold_s", avg(func(m *samples) []float64 { return m.cold }))
	b.set("sites_per_s", avg(func(m *samples) []float64 { return m.rate }))
	b.set("job_cached_ms", avg(func(m *samples) []float64 { return m.cached }))
	b.set("alloc_mb", avg(func(m *samples) []float64 { return m.alloc }))
	b.set("heap_live_mb", avg(func(m *samples) []float64 { return m.live }))
	b.note("job_cold_wall_s %.6f s (wall clock, not gated)", avg(func(m *samples) []float64 { return m.wallCold }))
	var cold, cached, setup int
	for _, m := range ms {
		cold, cached, setup = cold+len(m.cold), cached+len(m.cached), setup+len(m.setup)
	}
	b.note("samples: %d specs, %d cold units, %d cached units, %d set-ups", len(ms), cold, cached, setup)
}

// campaignTiming splits the CPU time of one cold campaign: setup runs from
// the Spec.Build call until the golden verdict (arena build, golden
// capture, checkpoints); sites is the rest, in which every site settles.
// wall and wallSites are the wall times of the whole campaign and of its
// sites phase.
type campaignTiming struct {
	setup, sites, total time.Duration
	wall, wallSites     time.Duration
}

// coldCampaign builds spec and fault-simulates its whole universe on one
// arena worker, the way cmd/faultsim runs a campaign.
func coldCampaign(spec serve.Spec, reg *telemetry.Registry) (*serve.Campaign, fault.Report, campaignTiming, error) {
	w0, t0 := time.Now(), cpuNow()
	c, err := spec.Build()
	if err != nil {
		return nil, fault.Report{}, campaignTiming{}, err
	}
	var wGolden time.Time
	var golden time.Duration
	rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget, core.CampaignOptions{
		Workers: arenaWorkers, Telemetry: reg,
		OnGolden: func(uint32, bool) { wGolden, golden = time.Now(), cpuNow() },
	})
	end, wEnd := cpuNow(), time.Now()
	return c, rep, campaignTiming{
		setup: golden - t0, sites: end - golden, total: end - t0,
		wall: wEnd.Sub(w0), wallSites: wEnd.Sub(wGolden),
	}, err
}

// cachedCampaign reruns spec resuming a journal that settles every site:
// the rerun builds the campaign and the arena, replays the golden run and
// folds the verdicts in from the journal.
func cachedCampaign(spec serve.Spec, journal string) (fault.Report, time.Duration, error) {
	t0 := cpuNow()
	c, err := spec.Build()
	if err != nil {
		return fault.Report{}, 0, err
	}
	rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget, core.CampaignOptions{
		Workers: arenaWorkers, Journal: journal, Resume: true,
	})
	return rep, cpuNow() - t0, err
}

// writeJournal records rep's verdicts under header into a fresh journal and
// returns the time the Record calls took.
func writeJournal(path string, header fault.JournalHeader, rep fault.Report) (time.Duration, error) {
	j, err := fault.CreateJournal(path, header)
	if err != nil {
		return 0, err
	}
	if err := j.BindGolden(rep.Golden, rep.GoldenOK); err != nil {
		j.Close()
		return 0, err
	}
	t0 := time.Now()
	for i, r := range rep.Results {
		if err := j.Record(i, r, "", ""); err != nil {
			j.Close()
			return 0, err
		}
	}
	d := time.Since(t0)
	return d, j.Close()
}

// checkCached counts one cached rerun, failed unless its report is
// byte-identical to the expected one.
func (b *bench) checkCached(what string, spec serve.Spec, blob []byte) {
	want := b.exp.verdicts[specName(spec)]
	b.check(want != nil && reportDigest(blob) == want.digest, "%s: report differs from expected %s", what, specName(spec))
}

// setupReps is the number of stand-alone set-ups in each round of the
// spec and service workloads. A set-up takes a few milliseconds and varied
// by a factor of two between units, so one sample per cold unit left its
// median at the mercy of a dozen draws.
const setupReps = 4

// runCampaigns is the untraced run of the spec workloads: an untimed
// warm-up round, then rounds over the specs, each a cold campaign followed
// by cachedPerCold journal-resumed reruns and setupReps set-ups.
func runCampaigns(b *bench, specs []serve.Spec) error {
	ms := make([]*samples, len(specs))
	journals := make([]string, len(specs))
	for k := range specs {
		ms[k] = &samples{}
		journals[k] = filepath.Join(b.work, fmt.Sprintf("campaign-%d.journal", k))
	}
	heap := startHeapSampler()
	defer heap.Stop()
	// The warm-up round writes the journals the cached reruns resume and
	// pays the process's one-time costs (page faults of a growing heap,
	// lazily built package state), which made the first unit of a run up to
	// three times slower than the rest.
	for k, spec := range specs {
		if err := campaignRound(b, spec, journals[k], nil, heap); err != nil {
			return err
		}
	}
	end := b.deadline(1)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		for k, spec := range specs {
			if err := campaignRound(b, spec, journals[k], ms[k], heap); err != nil {
				return err
			}
		}
	}
	report(b, ms)
	var cached []float64
	for _, m := range ms {
		cached = append(cached, m.cached...)
	}
	notePercentile(b, "job_cached", cached)
	return nil
}

// campaignRound runs one cold campaign of spec, its cached reruns and
// setupReps set-ups into m. With m nil it is the warm-up round: it records
// nothing and writes the journal the reruns resume.
func campaignRound(b *bench, spec serve.Spec, journal string, m *samples, heap *heapSampler) error {
	warmUp := m == nil
	if warmUp {
		m = &samples{}
	}
	runtime.GC() // each unit starts from a collected heap
	heap.window()
	a0 := allocBytes()
	c, rep, t, err := coldCampaign(spec, nil)
	a1 := allocBytes()
	live := heap.window()
	if err != nil {
		return err
	}
	b.checkReport("campaign", spec, rep)
	m.setup = append(m.setup, t.setup.Seconds())
	m.cold = append(m.cold, t.total.Seconds())
	m.wallCold = append(m.wallCold, t.wall.Seconds())
	m.rate = append(m.rate, float64(len(rep.Results))/t.sites.Seconds())
	m.alloc = append(m.alloc, float64(a1-a0)/mb)
	m.live = append(m.live, live)
	if warmUp {
		if _, err := writeJournal(journal, c.Header, rep); err != nil {
			return err
		}
	}
	for k := 0; k < cachedPerCold; k++ {
		runtime.GC()
		rep, d, err := cachedCampaign(spec, journal)
		if err != nil {
			return err
		}
		blob, err := serve.MarshalReport(rep)
		if err != nil {
			return err
		}
		b.checkCached("cached campaign", spec, blob)
		m.cached = append(m.cached, d.Seconds()*1000)
	}
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		d, err := campaignSetup(b, spec)
		if err != nil {
			return err
		}
		m.setup = append(m.setup, d.Seconds())
	}
	return nil
}

// campaignSetup repeats the set-up of a cold campaign on its own, through
// the calls RunCampaignOpts makes before its first site: Spec.Build,
// NewArena with the campaign's checkpoint interval, and the golden run,
// whose verdict must be the expected one.
func campaignSetup(b *bench, spec serve.Spec) (time.Duration, error) {
	t0 := cpuNow()
	c, err := spec.Build()
	if err != nil {
		return 0, err
	}
	a, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{CheckpointInterval: checkpointInterval(c.Budget)})
	if err != nil {
		return 0, err
	}
	sig, ok := a.Run(fault.None)
	d := cpuNow() - t0
	want := b.exp.verdicts[specName(spec)]
	b.check(want != nil && goldenLine(sig, ok) == want.golden, "set-up of %s: golden verdict differs from expected", specName(spec))
	return d, nil
}

// notePercentile prints the highest of p95/p90/p50 that has at least ten
// samples beyond it.
func notePercentile(b *bench, name string, xs []float64) {
	for _, p := range []int{95, 90, 50} {
		if float64(len(xs))*float64(100-p)/100 >= 10 {
			b.note("%s_p%d_ms %.4f ms (of %d samples)", name, p, quantile(xs, float64(p)/100), len(xs))
			return
		}
	}
}

// campaignUnit is one cold campaign, or with a tracer its traced
// decomposition.
func campaignUnit(b *bench, spec serve.Spec, tr *tracer) (time.Duration, error) {
	if tr != nil {
		d, err := decompose(tr, spec)
		if err != nil {
			return 0, err
		}
		b.checkReport("traced campaign", spec, d.rep)
		b.ts.lastDecomp = d
		return d.sites, nil
	}
	_, rep, t, err := coldCampaign(spec, nil)
	if err != nil {
		return 0, err
	}
	b.checkReport("campaign", spec, rep)
	b.ts.lastReport = &rep
	b.ts.directCold = append(b.ts.directCold, t.total.Seconds())
	return t.sites, nil
}

// serviceResult is one service job: a cold job and its cached burst. The
// times are CPU times of the whole process (client, server and worker);
// wallCold is the cold job's wall time.
type serviceResult struct {
	setup, cold, wallCold time.Duration
	sites                 int
	shards                int
	requests              int     // requests of the cold job (traced jobs only)
	alloc                 float64 // MB allocated during the cold job
	heapLive              float64 // live heap MB the server holds after the cold job, when measured
	cachedMs              []float64
}

// serviceJob stands up a server over a fresh store, submits spec cold,
// drains it with one worker, then resubmits it cached times with ?wait=1,
// fetching the report each time. With a tracer, every request of the
// client and the worker is a span under one service.job span. With
// measureLive, a collection after the cold job measures the live heap the
// server then holds (store, journal, job state and event buffers). The
// highest live heap sampled during the job is no use here: whether a
// collection happens to run while a multi-megabyte transient (a lease or a
// verdict batch) is live moved it between 3 and 11 MB from job to job.
func serviceJob(b *bench, spec serve.Spec, tr *tracer, cached int, measureLive bool) (serviceResult, error) {
	var res serviceResult
	dir, err := b.tempDir("store-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	root := tr.begin("service.job", -1)
	defer tr.end(root)
	var rt http.RoundTripper = transport
	if tr != nil {
		rt = &tracedTransport{base: transport, tr: tr, parent: root}
	}
	client := &http.Client{Transport: rt}

	t0 := cpuNow()
	srv, err := serve.New(serve.Config{StoreDir: dir})
	if err != nil {
		return res, err
	}
	hs := httptest.NewServer(srv)
	defer func() {
		transport.CloseIdleConnections()
		hs.Close()
		srv.Close()
	}()
	a0 := allocBytes()
	tc, wc := cpuNow(), time.Now()
	st, err := submit(client, hs.URL, spec, "")
	if err != nil {
		return res, err
	}
	res.setup = cpuNow() - t0
	w := &serve.Worker{Server: hs.URL, Name: "perfbench", Workers: arenaWorkers, Drain: true, Client: client}
	if err := w.Run(context.Background()); err != nil {
		return res, err
	}
	var done serve.JobStatus
	if err := getJSON(client, hs.URL+"/v1/jobs/"+st.ID, &done); err != nil {
		return res, err
	}
	coldEnd := time.Now()
	res.cold, res.wallCold = cpuNow()-tc, coldEnd.Sub(wc)
	res.alloc = float64(allocBytes()-a0) / mb
	if measureLive {
		runtime.GC()
		res.heapLive = liveMB()
	}
	res.sites, res.shards = done.Sites, done.Shards
	if tr != nil {
		res.requests = tr.countUnder(root, coldEnd)
	}
	if !b.check(done.State == "done" && done.Simulated == done.Sites,
		"service cold job: state %q, %d of %d sites simulated", done.State, done.Simulated, done.Sites) {
		return res, nil
	}
	report, err := getRaw(client, hs.URL+"/v1/jobs/"+st.ID+"/report")
	if err != nil {
		return res, err
	}
	b.checkReportBytes("service cold job", spec, report)

	for k := 0; k < cached; k++ {
		runtime.GC()
		t := cpuNow()
		st, err := submit(client, hs.URL, spec, "?wait=1")
		var blob []byte
		if err == nil {
			blob, err = getRaw(client, hs.URL+"/v1/jobs/"+st.ID+"/report")
		}
		res.cachedMs = append(res.cachedMs, (cpuNow()-t).Seconds()*1000)
		if !b.check(err == nil, "cached resubmission: %v", err) {
			continue
		}
		b.check(st.State == "done" && st.Simulated == 0 && st.FromCache == st.Sites,
			"cached resubmission not a full cache hit: state %q, simulated %d, from cache %d of %d",
			st.State, st.Simulated, st.FromCache, st.Sites)
		b.checkCached("cached resubmission", spec, blob)
	}
	return res, nil
}

// serviceSetup repeats the set-up of a service job on its own: serve.New
// over a fresh store, the test server, and the cold submission's reply,
// which must announce the spec's whole universe. The job is never run.
func serviceSetup(b *bench, spec serve.Spec) (time.Duration, error) {
	dir, err := b.tempDir("store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	transport := http.DefaultTransport.(*http.Transport).Clone()
	client := &http.Client{Transport: transport}
	t0 := cpuNow()
	srv, err := serve.New(serve.Config{StoreDir: dir})
	if err != nil {
		return 0, err
	}
	hs := httptest.NewServer(srv)
	defer func() {
		transport.CloseIdleConnections()
		hs.Close()
		srv.Close()
	}()
	st, err := submit(client, hs.URL, spec, "")
	d := cpuNow() - t0
	if err != nil {
		return 0, err
	}
	want := b.exp.verdicts[specName(spec)]
	b.check(want != nil && st.Sites == len(want.sites) && st.Settled == 0,
		"service set-up: %d sites, %d settled on a fresh store", st.Sites, st.Settled)
	return d, nil
}

// submit posts spec to /v1/jobs and decodes the status reply; a non-2xx
// reply is an error.
func submit(client *http.Client, base string, spec serve.Spec, query string) (serve.JobStatus, error) {
	var st serve.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := client.Post(base+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode/100 != 2 {
		return st, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(blob))
	}
	return st, json.Unmarshal(blob, &st)
}

// getRaw fetches url; a non-2xx reply is an error.
func getRaw(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return blob, nil
}

func getJSON(client *http.Client, url string, out any) error {
	blob, err := getRaw(client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, out)
}

// runService is the untraced run of the service workload: an untimed
// warm-up job per spec (see runCampaigns), then rounds of one service job
// and setupReps set-ups per spec.
func runService(b *bench, specs []serve.Spec) error {
	ms := make([]*samples, len(specs))
	for k, spec := range specs {
		ms[k] = &samples{}
		if _, err := serviceJob(b, spec, nil, 1, false); err != nil {
			return err
		}
	}
	end := b.deadline(1)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		for k, spec := range specs {
			runtime.GC() // each cold unit starts from a collected heap
			r, err := serviceJob(b, spec, nil, cachedPerCold, true)
			if err != nil {
				return err
			}
			m := ms[k]
			m.setup = append(m.setup, r.setup.Seconds())
			m.cold = append(m.cold, r.cold.Seconds())
			m.wallCold = append(m.wallCold, r.wallCold.Seconds())
			m.rate = append(m.rate, float64(r.sites)/r.cold.Seconds())
			m.alloc = append(m.alloc, r.alloc)
			m.live = append(m.live, r.heapLive)
			m.cached = append(m.cached, r.cachedMs...)
			for k := 0; k < setupReps; k++ {
				runtime.GC()
				d, err := serviceSetup(b, spec)
				if err != nil {
					return err
				}
				m.setup = append(m.setup, d.Seconds())
			}
		}
	}
	report(b, ms)
	var cached []float64
	for _, m := range ms {
		cached = append(cached, m.cached...)
	}
	notePercentile(b, "job_cached", cached)
	return nil
}

// serviceUnit is one service cold job with a short cached burst. Untraced
// jobs give the cold-job times; traced ones the request counts.
func serviceUnit(b *bench, spec serve.Spec, tr *tracer) (time.Duration, error) {
	r, err := serviceJob(b, spec, tr, serviceProbeCached, false)
	if err != nil {
		return 0, err
	}
	if tr == nil {
		b.ts.serviceCold = append(b.ts.serviceCold, r.cold.Seconds())
	} else {
		b.ts.serviceShards = r.shards
		b.ts.serviceRequests = append(b.ts.serviceRequests, float64(r.requests))
	}
	return r.cold, nil
}

// serviceProbeCached is the cached burst of a traced service job: enough
// requests to time the submit route on the cache-hit path.
const serviceProbeCached = 5

// suiteStep is one experiments call of the quick suite, rendered.
type suiteStep struct {
	name string
	run  func(experiments.Options) (string, error)
}

// suite is the quick paper suite in cmd/repro order. The first
// setupSteps steps simulate no fault campaign: everything the suite does
// before its first fault site counts as its set-up.
var suite = []suiteStep{
	{"fig1", func(o experiments.Options) (string, error) {
		r, err := experiments.Figure1(o)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure1(r), nil
	}},
	{"fig2", func(o experiments.Options) (string, error) {
		r, err := experiments.Figure2(o)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure2(r), nil
	}},
	{"t1", func(o experiments.Options) (string, error) {
		r, err := experiments.TableI(o)
		if err != nil {
			return "", err
		}
		return experiments.RenderTableI(r), nil
	}},
	{"t2", func(o experiments.Options) (string, error) {
		r, err := experiments.TableII(o)
		if err != nil {
			return "", err
		}
		return experiments.RenderTableII(r), nil
	}},
	{"t3", func(o experiments.Options) (string, error) {
		r, err := experiments.TableIII(o)
		if err != nil {
			return "", err
		}
		return experiments.RenderTableIII(r), nil
	}},
	{"t4", func(o experiments.Options) (string, error) {
		r, err := experiments.TableIV(o)
		if err != nil {
			return "", err
		}
		return experiments.RenderTableIV(r), nil
	}},
	{"delay", func(o experiments.Options) (string, error) {
		r, err := experiments.DelayFaults(o)
		if err != nil {
			return "", err
		}
		return experiments.RenderDelay(r), nil
	}},
}

const setupSteps = 3

// runSuite runs the quick suite and returns its rendered text (each table
// under a "### <name>" header) and per-step CPU times. With a tracer,
// each step is a span under parent.
func runSuite(o experiments.Options, tr *tracer) (string, []time.Duration, error) {
	var sb strings.Builder
	times := make([]time.Duration, len(suite))
	parent := tr.begin("experiments.suite", -1)
	defer tr.end(parent)
	for i, s := range suite {
		id := tr.begin("experiments."+s.name, parent)
		t0 := cpuNow()
		text, err := s.run(o)
		times[i] = cpuNow() - t0
		tr.end(id)
		if err != nil {
			return sb.String(), times, fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintf(&sb, "### %s\n%s\n", s.name, text)
	}
	return sb.String(), times, nil
}

// checkTables compares a rendered suite with the expected tables, one
// operation per table.
func (b *bench) checkTables(what, got string) {
	gotT, wantT := splitTables(got), splitTables(b.exp.tables)
	for _, s := range suite {
		b.check(gotT[s.name] == wantT[s.name] && wantT[s.name] != "", "%s: table %s differs from expected", what, s.name)
	}
}

// splitTables splits runSuite text into tables by name.
func splitTables(text string) map[string]string {
	out := map[string]string{}
	for _, part := range strings.Split(text, "### ")[1:] {
		name, body, _ := strings.Cut(part, "\n")
		out[name] = body
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// quickOptions are the suite options of the paper-quick workload.
func quickOptions() experiments.Options {
	return experiments.Options{Quick: true, Workers: arenaWorkers}
}

// suiteSites runs one journaled quick suite into jdir with a registry
// attached, checks its tables and returns the number of sites it settles.
func suiteSites(b *bench, jdir string) (int64, error) {
	o := quickOptions()
	o.JournalDir = jdir
	o.Telemetry = telemetry.NewRegistry()
	text, _, err := runSuite(o, nil)
	if err != nil {
		return 0, err
	}
	b.checkTables("journaled suite", text)
	return o.Telemetry.Counter("campaign_sites_settled_total").Value(), nil
}

// runPaper is the untraced run of paper-quick: cold suites, each followed
// by cachedSuitesPerCold reruns over a journal directory that settles
// every campaign.
func runPaper(b *bench, _ []serve.Spec) error {
	jdir, err := b.tempDir("journals-")
	if err != nil {
		return err
	}
	// Untimed warm-up pass: fills the journals the cached reruns resume
	// and counts the sites one suite settles.
	sites, err := suiteSites(b, jdir)
	if err != nil {
		return err
	}
	cachedOpt := quickOptions()
	cachedOpt.JournalDir = jdir
	m := &samples{}
	heap := startHeapSampler()
	defer heap.Stop()
	end := b.deadline(1)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		runtime.GC() // each unit starts from a collected heap
		heap.window()
		a0, w0 := allocBytes(), time.Now()
		text, times, err := runSuite(quickOptions(), nil)
		a1, w1 := allocBytes(), time.Now()
		live := heap.window()
		if err != nil {
			return err
		}
		b.checkTables("suite", text)
		s, total := sum(times[:setupSteps]), sum(times)
		m.setup = append(m.setup, s.Seconds())
		m.cold = append(m.cold, total.Seconds())
		m.wallCold = append(m.wallCold, w1.Sub(w0).Seconds())
		m.rate = append(m.rate, float64(sites)/(total-s).Seconds())
		m.alloc = append(m.alloc, float64(a1-a0)/mb)
		m.live = append(m.live, live)
		for k := 0; k < cachedSuitesPerCold; k++ {
			runtime.GC()
			text, times, err := runSuite(cachedOpt, nil)
			if err != nil {
				return err
			}
			b.checkTables("cached suite", text)
			m.setup = append(m.setup, sum(times[:setupSteps]).Seconds())
			m.cached = append(m.cached, sum(times).Seconds()*1000)
		}
	}
	report(b, []*samples{m})
	b.note("suite_s %.6f s (median of %d cold suites, %d sites each)", median(m.cold), len(m.cold), sites)
	return nil
}

// paperUnit is one cold quick suite; traced, it carries a span per table
// and a registry, which also counts the sites.
func paperUnit(b *bench, _ serve.Spec, tr *tracer) (time.Duration, error) {
	o := quickOptions()
	if tr != nil {
		o.Telemetry = telemetry.NewRegistry()
	}
	text, times, err := runSuite(o, tr)
	if err != nil {
		return 0, err
	}
	b.checkTables("suite", text)
	if tr != nil {
		b.ts.suiteTimes = append(b.ts.suiteTimes, times)
	}
	return sum(times) - sum(times[:setupSteps]), nil
}
