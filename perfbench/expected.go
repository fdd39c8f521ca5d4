package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/serve"
)

// The committed expected outputs, generated once by --update:
//
//	verdicts/<spec>.txt  the serve.MarshalReport digest, golden verdict and
//	                     per-site verdicts of a reference-mode campaign
//	stats.json           the exact simulated statistics of each spec's
//	                     golden run, by per-layer metric name
//	paper-quick.txt      the rendered quick tables, in cmd/repro order
//
// The model has no silicon reference, so accuracy is self-consistency: the
// optimized engine, the service and every later version of the simulator
// must reproduce these bit for bit.
type expected struct {
	verdicts map[string]*verdicts // by specName
	stats    map[string]map[string]int64
	tables   string
}

// verdicts is one campaign's expected outcome.
type verdicts struct {
	digest string   // sha256 of the serve.MarshalReport bytes
	golden string   // golden verdict line
	sites  []string // one verdict line per site
}

func reportDigest(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func goldenLine(sig uint32, ok bool) string { return fmt.Sprintf("golden %08x %t", sig, ok) }

func verdictLine(r fault.SiteResult) string {
	flags := ""
	for _, f := range []struct {
		on bool
		c  string
	}{{r.Detected, "d"}, {r.Crashed, "c"}, {r.Panicked, "p"}} {
		if f.on {
			flags += f.c
		}
	}
	if flags == "" {
		flags = "-"
	}
	return fmt.Sprintf("%08x %s", r.Signature, flags)
}

// verdictsOf renders a report in the expected-verdicts form.
func verdictsOf(rep fault.Report) (*verdicts, error) {
	blob, err := serve.MarshalReport(rep)
	if err != nil {
		return nil, err
	}
	v := &verdicts{digest: reportDigest(blob), golden: goldenLine(rep.Golden, rep.GoldenOK)}
	for _, r := range rep.Results {
		v.sites = append(v.sites, verdictLine(r))
	}
	return v, nil
}

// mismatches counts the sites whose verdict differs from the expected one;
// a differing golden verdict or site count makes every site count.
func (v *verdicts) mismatches(rep fault.Report) int {
	if goldenLine(rep.Golden, rep.GoldenOK) != v.golden || len(rep.Results) != len(v.sites) {
		return len(v.sites)
	}
	n := 0
	for i, r := range rep.Results {
		if verdictLine(r) != v.sites[i] {
			n++
		}
	}
	return n
}

// checkReport counts every site of rep as attempted and each site whose
// verdict differs from the committed one as failed. Panicked sites differ
// by construction (no expected verdict is a panic).
func (b *bench) checkReport(what string, spec serve.Spec, rep fault.Report) {
	want := b.exp.verdicts[specName(spec)]
	if want == nil {
		b.check(false, "%s: no expected verdicts for %s", what, specName(spec))
		return
	}
	b.attempted += len(want.sites)
	blob, err := serve.MarshalReport(rep)
	if err == nil && reportDigest(blob) == want.digest {
		return
	}
	bad := want.mismatches(rep)
	if bad == 0 {
		bad = 1 // same verdicts, different report bytes
	}
	b.failed += bad
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: %d of %d sites differ from expected %s\n", what, bad, len(want.sites), specName(spec))
}

// checkReportBytes checks a service report against the expected digest.
func (b *bench) checkReportBytes(what string, spec serve.Spec, blob []byte) {
	want := b.exp.verdicts[specName(spec)]
	if want == nil {
		b.check(false, "%s: no expected verdicts for %s", what, specName(spec))
		return
	}
	if reportDigest(blob) == want.digest {
		b.attempted += len(want.sites)
		return
	}
	var rep fault.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		b.attempted += len(want.sites)
		b.failed += len(want.sites)
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: undecodable report: %v\n", what, err)
		return
	}
	b.checkReport(what, spec, rep)
}

// checkStats compares exact simulated statistics with the committed ones.
func (b *bench) checkStats(spec serve.Spec, got map[string]int64) {
	want := b.exp.stats[specName(spec)]
	for name, v := range got {
		w, ok := want[name]
		b.check(ok && w == v, "%s: %s = %d, expected %d", specName(spec), name, v, w)
	}
}

func loadExpected(dir string) (*expected, error) {
	e := &expected{verdicts: map[string]*verdicts{}}
	blob, err := os.ReadFile(filepath.Join(dir, "stats.json"))
	if err != nil {
		return nil, fmt.Errorf("expected outputs: %w", err)
	}
	if err := json.Unmarshal(blob, &e.stats); err != nil {
		return nil, fmt.Errorf("expected outputs: stats.json: %w", err)
	}
	tables, err := os.ReadFile(filepath.Join(dir, "paper-quick.txt"))
	if err != nil {
		return nil, fmt.Errorf("expected outputs: %w", err)
	}
	e.tables = string(tables)
	for _, spec := range allSpecs() {
		name := specName(spec)
		v, err := readVerdicts(filepath.Join(dir, "verdicts", name+".txt"))
		if err != nil {
			return nil, fmt.Errorf("expected outputs: %w", err)
		}
		e.verdicts[name] = v
	}
	return e, nil
}

// readVerdicts parses a verdicts file: a digest line, a golden line, then
// one line per site.
func readVerdicts(path string) (*verdicts, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	v := &verdicts{}
	for n := 0; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case n == 0:
			d, ok := strings.CutPrefix(line, "report-sha256 ")
			if !ok {
				return nil, fmt.Errorf("%s: first line is not the report digest", path)
			}
			v.digest = d
		case n == 1:
			v.golden = line
		default:
			v.sites = append(v.sites, line)
		}
	}
	if v.golden == "" || len(v.sites) == 0 {
		return nil, fmt.Errorf("%s: truncated", path)
	}
	return v, nil
}

// allSpecs lists every spec a workload runs at seed 0 or 1 (the core under
// test is seed mod 2), plus the paper-quick probe spec.
func allSpecs() []serve.Spec {
	seen := map[string]bool{}
	var out []serve.Spec
	for _, w := range workloads {
		for seed := 0; seed < 2; seed++ {
			s := w.spec(seed)
			if !seen[specName(s)] {
				seen[specName(s)] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// updateExpected regenerates the expected outputs with the reference
// engine mode: full budget per run, no early exit, no checkpointing.
func updateExpected(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "verdicts"), 0o755); err != nil {
		return err
	}
	stats := map[string]map[string]int64{}
	for _, spec := range allSpecs() {
		c, err := spec.Build()
		if err != nil {
			return err
		}
		rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget,
			core.CampaignOptions{Workers: arenaWorkers, Reference: true})
		if err != nil {
			return err
		}
		v, err := verdictsOf(rep)
		if err != nil {
			return err
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "report-sha256 %s\n%s\n", v.digest, v.golden)
		for _, s := range v.sites {
			sb.WriteString(s + "\n")
		}
		name := specName(spec)
		if err := os.WriteFile(filepath.Join(dir, "verdicts", name+".txt"), []byte(sb.String()), 0o644); err != nil {
			return err
		}
		ref, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{NoEarlyExit: true})
		if err != nil {
			return err
		}
		ref.Run(fault.None)
		stats[name] = goldenStats(ref, c.Core)
		fmt.Printf("%s: %d sites, %s\n", name, len(v.sites), v.golden)
	}
	blob, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "stats.json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	text, _, err := runSuite(experiments.Options{Quick: true, Workers: arenaWorkers, Reference: true}, nil)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "paper-quick.txt"), []byte(text), 0o644)
}
