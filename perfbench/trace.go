package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public functions.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Run    string `json:"run"`    // the round (or probe phase) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the traced and untraced paths share their code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) setRun(run string) {
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run, Name: name, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// durations returns the lengths of the closed spans whose name has the
// given prefix, in seconds.
func (t *tracer) durations(prefix string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// countUnder counts the spans of parent that ended by the time until.
func (t *tracer) countUnder(parent int, until time.Time) int {
	limit := until.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Parent == parent && s.End > 0 && s.End <= limit {
			n++
		}
	}
	return n
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport records one span per HTTP request, from the request
// until its response body is closed, named by the service route.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.begin("serve.http."+route(req), t.parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

// route names the service endpoint a request goes to.
func route(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/jobs" && req.Method == http.MethodPost:
		return "submit"
	case p == "/v1/lease":
		return "lease"
	case strings.HasSuffix(p, "/verdicts"):
		return "verdicts"
	case strings.HasSuffix(p, "/complete"):
		return "complete"
	case strings.HasSuffix(p, "/report"):
		return "report"
	}
	return "status"
}

// spanBody closes its span once, when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// traceState carries what the traced rounds measured to the probes.
type traceState struct {
	tr              *tracer
	lastDecomp      *decomposition // last traced campaign decomposition
	lastReport      *fault.Report  // last untraced campaign report
	directCold      []float64      // untraced campaign seconds, Build to report
	serviceCold     []float64      // untraced service cold-job seconds
	serviceShards   int
	serviceRequests []float64 // requests per traced cold job
	suiteTimes      [][]time.Duration
}

// decomposition is one campaign run call by call through the public
// layers, in the order core.RunCampaignOpts uses with one worker:
// Spec.Build, NewArena, the golden Arena.Run, then Arena.Run per site.
type decomposition struct {
	c        *serve.Campaign
	a        *core.Arena
	rep      fault.Report
	dispatch fault.DispatchStats
	sites    time.Duration // CPU time from the golden verdict to the last site
}

// checkpointInterval mirrors the automatic interval RunCampaignOpts gives
// its arenas (budget/64 clamped to [256, 16384] cycles). If the two drift
// apart, the dispatch counts of the traced and untraced runs differ and
// the cross-check fails.
func checkpointInterval(budget int64) int64 {
	return min(max(budget/64, 256), 16_384)
}

func decompose(tr *tracer, spec serve.Spec) (*decomposition, error) {
	root := tr.begin("campaign", -1)
	defer tr.end(root)
	id := tr.begin("serve.build", root)
	c, err := spec.Build()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("core.arena_build", root)
	a, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{CheckpointInterval: checkpointInterval(c.Budget)})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("core.golden", root)
	golden, goldenOK, _ := safeRun(a, fault.None)
	tr.end(id)
	d := &decomposition{c: c, a: a}
	d.rep = fault.Report{Golden: golden, GoldenOK: goldenOK, Total: len(c.Sites), Results: make([]fault.SiteResult, len(c.Sites))}
	prev := a.Stats().Dispatch
	t0 := cpuNow()
	for i, site := range c.Sites {
		start := time.Now()
		sig, ok, panicked := safeRun(a, fault.PlaneFor(site))
		end := time.Now()
		cur := a.Stats().Dispatch
		path := "unclassified"
		for p := range cur {
			if cur[p] != prev[p] {
				path = fault.DispatchPath(p).String()
			}
		}
		prev = cur
		tr.add("core.run."+path, root, start, end)
		if !ok {
			sig = 0
		}
		r := fault.SiteResult{Site: site, Signature: sig, Crashed: !ok, Panicked: panicked, Detected: !ok || sig != golden}
		d.rep.Results[i] = r
		if r.Detected {
			d.rep.Detected++
		}
		if r.Panicked {
			d.rep.Panics++
		}
	}
	d.sites = cpuNow() - t0
	d.dispatch = a.Stats().Dispatch
	return d, nil
}

// safeRun runs one plane behind a recover boundary, like the campaign
// dispatcher: a panicking run is a panicked verdict, not a crash of the
// benchmark.
func safeRun(a *core.Arena, p fault.Plane) (sig uint32, ok, panicked bool) {
	defer func() {
		if recover() != nil {
			sig, ok, panicked = 0, false, true
		}
	}()
	sig, ok = a.Run(p)
	return sig, ok, false
}

// tracedLoopShare is the share of --seconds spent in paired untraced and
// traced rounds; the layer probes follow.
const tracedLoopShare = 0.5

// runTraced is the per-layer run: paired untraced and traced units of the
// workload, then the layer probes on the workload's spec. Every span is
// written to .bench_build/trace-<workload>-seed<n>.jsonl when it ends.
func runTraced(b *bench) error {
	w := b.workload
	spec := w.spec(b.seed)
	tr := newTracer()
	b.ts.tr = tr
	var plain, traced []float64
	end := b.deadline(tracedLoopShare)
	for round := 0; round < 2 || time.Now().Before(end); round++ {
		tr.setRun(fmt.Sprintf("%s/seed%d/round%d", w.name, b.seed, round))
		runtime.GC() // each cold unit starts from a collected heap
		u, err := w.unit(b, spec, nil)
		if err != nil {
			return err
		}
		runtime.GC()
		t, err := w.unit(b, spec, tr)
		if err != nil {
			return err
		}
		plain = append(plain, u.Seconds())
		traced = append(traced, t.Seconds())
	}
	// Traced over untraced sites per second; both settle the same sites.
	b.set("telemetry.overhead_ratio", median(plain)/median(traced))
	b.note("rounds: %d untraced + %d traced units", len(plain), len(traced))

	tr.setRun(fmt.Sprintf("%s/seed%d/probes", w.name, b.seed))
	err := probes(b, spec)
	path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, b.seed))
	if werr := tr.write(path); werr != nil {
		return werr
	}
	b.note("spans: %s", path)
	return err
}

// probes measures each layer on spec, reusing what the traced rounds
// measured and running what they did not.
func probes(b *bench, spec serve.Spec) error {
	tr, ts := b.ts.tr, &b.ts
	d := ts.lastDecomp
	if d == nil {
		var err error
		if d, err = decompose(tr, spec); err != nil {
			return err
		}
		b.checkReport("traced campaign", spec, d.rep)
	}
	if ts.lastReport == nil {
		_, rep, t, err := coldCampaign(spec, nil)
		if err != nil {
			return err
		}
		b.checkReport("campaign", spec, rep)
		ts.lastReport = &rep
		ts.directCold = append(ts.directCold, t.total.Seconds())
	}
	if err := probeCore(b, spec, d); err != nil {
		return err
	}
	if len(ts.serviceRequests) == 0 {
		for _, t := range []*tracer{nil, tr} {
			if _, err := serviceUnit(b, spec, t); err != nil {
				return err
			}
		}
	}
	for _, r := range []string{"submit", "lease", "verdicts", "complete"} {
		b.set("serve.http_ms."+r, median(tr.durations("serve.http."+r))*1000)
	}
	b.set("serve.requests", median(ts.serviceRequests))
	b.set("serve.shards", float64(ts.serviceShards))
	b.set("serve.overhead_ratio", median(ts.serviceCold)/median(ts.directCold))
	b.set("serve.build_ms", median(tr.durations("serve.build"))*1000)
	if err := probeJournal(b, d); err != nil {
		return err
	}
	if err := probeSoC(b, spec, d.c); err != nil {
		return err
	}
	if len(ts.suiteTimes) == 0 {
		if _, err := paperUnit(b, spec, tr); err != nil {
			return err
		}
	}
	for i, s := range suite {
		var xs []float64
		for _, times := range ts.suiteTimes {
			xs = append(xs, times[i].Seconds())
		}
		b.set("experiments."+s.name+"_s", median(xs))
	}
	return nil
}

// probeCore reports the core layer from the traced decomposition and
// cross-checks its exact counts against the untraced report and, with a
// registry attached, against the arena_dispatch_*_total counters.
func probeCore(b *bench, spec serve.Spec, d *decomposition) error {
	tr, rep := b.ts.tr, b.ts.lastReport
	b.check(d.dispatch == rep.Dispatch && len(d.rep.Results) == len(rep.Results),
		"traced dispatch %v over %d sites, untraced %v over %d", d.dispatch, len(d.rep.Results), rep.Dispatch, len(rep.Results))

	reg := telemetry.NewRegistry()
	_, rrep, t, err := coldCampaign(spec, reg)
	if err != nil {
		return err
	}
	b.checkReport("campaign with registry", spec, rrep)
	for p := fault.DispatchPath(0); p < fault.NumDispatchPaths; p++ {
		n := reg.Counter("arena_dispatch_" + p.String() + "_total").Value()
		b.check(n == d.dispatch[p], "arena_dispatch_%s_total = %d, traced %d", p, n, d.dispatch[p])
	}
	settled := reg.Counter("campaign_sites_settled_total").Value()
	b.check(settled == int64(len(d.rep.Results)), "campaign_sites_settled_total = %d, traced %d sites", settled, len(d.rep.Results))
	busy := reg.Counter("campaign_worker_busy_ns_total").Value()
	b.set("fault.worker_busy_frac", float64(busy)/float64(t.wallSites.Nanoseconds()))

	b.set("core.arena_build_ms", median(tr.durations("core.arena_build"))*1000)
	for p := fault.DispatchPath(0); p < fault.NumDispatchPaths; p++ {
		b.set("core.sites."+p.String(), float64(d.dispatch[p]))
	}
	b.set("core.shortcut_ratio", float64(d.dispatch.Shortcuts())/float64(d.dispatch.Total()))
	b.set("core.run_us.full_replay", mean(tr.durations("core.run.full_replay"))*1e6)
	runs := tr.durations("core.run.")
	b.set("core.run_p50_us", quantile(runs, 0.50)*1e6)
	b.set("core.run_p99_us", quantile(runs, 0.99)*1e6)
	for p := fault.DispatchPath(0); p < fault.NumDispatchPaths; p++ {
		if xs := tr.durations("core.run." + p.String()); len(xs) > 0 {
			b.note("core.run_us.%s %.3f us (mean of %d)", p, mean(xs)*1e6, len(xs))
		}
	}
	st := d.a.Stats()
	b.set("core.early_exits", float64(st.EarlyExits))
	b.set("core.checkpoints", float64(st.Checkpoints))
	return nil
}

// probeJournal replays the decomposition's verdicts into a fresh journal
// under the campaign's header, then resumes it.
func probeJournal(b *bench, d *decomposition) error {
	path := filepath.Join(b.work, "probe.journal")
	var record, resume []float64
	for k := 0; k < 5; k++ {
		t, err := writeJournal(path, d.c.Header, d.rep)
		if err != nil {
			return err
		}
		record = append(record, t.Seconds()/float64(len(d.rep.Results)))
		t0 := time.Now()
		j, err := fault.ResumeJournal(path, d.c.Header)
		if err != nil {
			return err
		}
		resume = append(resume, time.Since(t0).Seconds())
		n := j.SettledCount()
		j.Close()
		b.check(n == len(d.rep.Results), "resumed journal settles %d of %d sites", n, len(d.rep.Results))
	}
	b.set("fault.journal_record_us", median(record)*1e6)
	b.set("fault.journal_resume_ms", median(resume)*1000)
	return nil
}

// goldenStats are the exact simulated statistics of a finished golden run
// in arena a, by per-layer metric name.
func goldenStats(a *core.Arena, id int) map[string]int64 {
	r := a.Last()
	u := a.SoC().Cores[id]
	st := map[string]int64{
		"soc.golden_cycles": r.Cycles,
		"cpu.instret":       int64(r.Instret),
		"cpu.if_stall":      int64(r.IFStall),
		"cpu.mem_stall":     int64(r.MemStall),
		"cpu.haz_stall":     int64(r.HazStall),
		"cpu.dual_issue":    int64(r.Issued2),
	}
	var i, dm, wb int
	if u.ICache != nil {
		i, dm, wb = u.ICache.Stats().Misses, u.DCache.Stats().Misses, u.DCache.Stats().Writebacks
	}
	st["cache.i_misses"], st["cache.d_misses"], st["cache.d_writebacks"] = int64(i), int64(dm), int64(wb)
	// The core's bus masters are its instruction port (2*id) and its data
	// port (2*id+1).
	var tx, wait int
	for _, m := range []int{2 * id, 2*id + 1} {
		s := a.SoC().Bus.StatsFor(m)
		tx, wait = tx+s.Transactions, wait+s.WaitCycles
	}
	st["bus.transactions"], st["bus.wait_cycles"] = int64(tx), int64(wait)
	return st
}

// probeSoC times the simulator itself on the campaign's environment: a
// golden run in a reference-mode arena, SoC snapshot/restore/reset, bus
// plus replayer stepping over the recorded traffic, and instruction
// decode over the program image.
func probeSoC(b *bench, spec serve.Spec, c *serve.Campaign) error {
	ref, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{NoEarlyExit: true})
	if err != nil {
		return err
	}
	var perCycle []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		ref.Run(fault.None)
		perCycle = append(perCycle, float64(time.Since(t0).Nanoseconds())/float64(ref.Last().Cycles))
	}
	b.set("soc.ns_per_cycle", median(perCycle))
	stats := goldenStats(ref, c.Core)
	b.checkStats(spec, stats)
	for name, v := range stats {
		b.set(name, float64(v))
	}

	s := ref.SoC()
	const reps = 50
	var snap, restore, reset []float64
	var st *soc.State
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		st = s.Snapshot()
		snap = append(snap, time.Since(t0).Seconds())
	}
	// Each Reset rewinds the golden run's end state, as the arena's Reset
	// before a full replay does.
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		s.Restore(st)
		t1 := time.Now()
		s.Reset()
		restore = append(restore, t1.Sub(t0).Seconds())
		reset = append(reset, time.Since(t1).Seconds())
	}
	b.set("soc.snapshot_us", median(snap)*1e6)
	b.set("soc.restore_us", median(restore)*1e6)
	b.set("soc.reset_us", median(reset)*1e6)

	b.set("bus.step_ns", busStepNs(c.Cfg, ref.Last().Cycles))
	ns, err := decodeNs(b, c, s)
	if err != nil {
		return err
	}
	b.set("isa.decode_ns", ns)
	return nil
}

// busStepNs times Bus.Step plus every Replayer.Step per cycle over the
// campaign's recorded traffic, on a bus built like the SoC's (the cores'
// ports followed by one port per replayed trace), for the golden run's
// cycle count.
func busStepNs(cfg soc.Config, cycles int64) float64 {
	var per []float64
	for k := 0; k < 5; k++ {
		flash := mem.NewFlash(mem.FlashSize, soc.DefaultFlashBankLatencies())
		sram := mem.NewRAM(mem.SRAMSize, 2)
		bs := bus.New(2*soc.NumCores+len(cfg.Replay), cfg.Arbitration, []bus.Region{
			{Base: mem.FlashBase, Size: mem.FlashSize, Dev: flash},
			{Base: mem.SRAMBase, Size: mem.SRAMSize, Dev: sram},
			{Base: mem.SRAMUncachedBase, Size: mem.SRAMSize, Dev: sram},
		})
		var reps []*bus.Replayer
		for i, trace := range cfg.Replay {
			reps = append(reps, bus.NewReplayer(bs.PortFor(2*soc.NumCores+i), trace))
		}
		t0 := time.Now()
		for n := int64(0); n < cycles; n++ {
			bs.Step()
			for _, r := range reps {
				r.Step(bs.Cycle())
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(cycles))
	}
	return median(per)
}

// decodeSink keeps the decode loop from being optimized away.
var decodeSink isa.Op

// decodeNs times isa.Decode per word over the core under test's program
// image, assembled the way the arena assembles it; the image is checked
// against the words loaded in flash.
func decodeNs(b *bench, c *serve.Campaign, s *soc.SoC) (float64, error) {
	bld := asm.NewBuilder()
	if err := c.Job.Strategy.Emit(bld, c.Job.Routine); err != nil {
		return 0, err
	}
	bld.Halt()
	prog, err := bld.Assemble(c.Job.CodeBase)
	if err != nil {
		return 0, err
	}
	same := true
	for i, w := range prog.Words {
		if mem.ReadWord(s.Flash, prog.Base-mem.FlashBase+uint32(4*i)) != w {
			same = false
		}
	}
	b.check(same, "assembled program image differs from the words loaded in flash")
	const reps = 200
	var per []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, w := range prog.Words {
				if in, err := isa.Decode(w); err == nil {
					decodeSink = in.Op
				}
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(reps*len(prog.Words)))
	}
	return median(per), nil
}
