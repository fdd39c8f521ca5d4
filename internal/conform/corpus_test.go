package conform

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/fault"
)

var update = flag.Bool("update", false, "rewrite testdata/corpus_timing.json from the current simulator")

// TestSeedCorpusReplays is the regression gate over testdata/corpus: every
// checked-in recipe must rebuild and replay cleanly through the program
// scenarios, and the minimized decoder-bug repros must keep catching the
// injected bug they were shrunk against. New minimized repros land here as
// new files; the table is the directory.
func TestSeedCorpusReplays(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	progs, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) == 0 {
		t.Fatal("seed corpus is empty")
	}

	clean, err := Lookup("uncached")
	if err != nil {
		t.Fatal(err)
	}
	buggy, err := NewMutated("uncached", DecoderBugArithShift)
	if err != nil {
		t.Fatal(err)
	}

	for i, p := range progs {
		p := p
		name := filepath.Base(names[i])
		t.Run(name, func(t *testing.T) {
			// On the clean tree every entry must pass: these are regression
			// seeds, so any mismatch here is a real engine divergence.
			cov := new(coverage.Map)
			if m := clean.CheckProgram(p, cov); m != nil {
				t.Fatalf("clean replay diverged: %v", m)
			}
			if strings.HasPrefix(name, "interrupt-") {
				// Interrupt frontier seeds must stay what they were kept
				// for: handler-carrying programs whose plan actually takes
				// interrupts on the pipeline.
				if !p.Cfg.Interrupts.Enabled() {
					t.Fatal("interrupt seed lost its plan")
				}
				bits := cov.Bits()
				if !bits.Has(coverage.FeatInterrupt) || !bits.Has(coverage.FeatIntReti) {
					t.Error("interrupt seed no longer takes interrupts on replay")
				}
			}
			if !strings.HasPrefix(name, "decoder-bug-") {
				return
			}
			// A minimized repro must stay a repro: small, and still able to
			// expose the bug it was shrunk against.
			if n := p.NumInsts(); n > 20 {
				t.Errorf("minimized repro grew to %d instructions", n)
			}
			if m := buggy.CheckProgram(p, nil); m == nil {
				t.Error("minimized repro no longer catches the injected decoder bug")
			}
		})
	}
}

// corpusTiming is one corpus program's cycle-exact timing under one
// program scenario. Cache counters stay zero (and are omitted) uncached.
type corpusTiming struct {
	Cycles      int64  `json:"cycles"`
	Instret     uint64 `json:"instret"`
	IFStall     uint64 `json:"if_stall"`
	MemStall    uint64 `json:"mem_stall"`
	HazStall    uint64 `json:"haz_stall"`
	DualIssue   uint64 `json:"dual_issue"`
	IHits       int    `json:"i_hits,omitempty"`
	IMisses     int    `json:"i_misses,omitempty"`
	IWritebacks int    `json:"i_writebacks,omitempty"`
	DHits       int    `json:"d_hits,omitempty"`
	DMisses     int    `json:"d_misses,omitempty"`
	DWritebacks int    `json:"d_writebacks,omitempty"`
}

// TestCorpusTimingPinned pins the cycle-exact timing of every
// testdata/corpus program as the uncached and cached scenarios run it
// (progTarget core, codeBase, the entry's interrupt plan) against
// testdata/corpus_timing.json, so a simulator change cannot shift timing
// unnoticed. A deliberate timing change rewrites the fixture with
// go test ./internal/conform -run TestCorpusTimingPinned -update
// and is reviewed as its diff; a missing or extra entry fails.
func TestCorpusTimingPinned(t *testing.T) {
	names, err := corpusNames(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]corpusTiming{}
	for _, name := range names {
		p, err := loadRecipeFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, coreID := progTarget(p)
		prog, err := p.Assemble(codeBase)
		if err != nil {
			t.Fatal(err)
		}
		entry := map[string]corpusTiming{}
		for _, cached := range []bool{false, true} {
			s, err := runSoC(prog, p.Cfg, coreID, cached, false, nil)
			if err != nil {
				t.Fatalf("%s (cached=%v): %v", name, cached, err)
			}
			c := s.Cores[coreID]
			tm := corpusTiming{
				Cycles:    c.Core.Cycle(),
				Instret:   c.Core.Counter(fault.CntInstret),
				IFStall:   c.Core.Counter(fault.CntIFStall),
				MemStall:  c.Core.Counter(fault.CntMemStall),
				HazStall:  c.Core.Counter(fault.CntHazStall),
				DualIssue: c.Core.Counter(fault.CntIssued2),
			}
			scenario := "uncached"
			if cached {
				scenario = "cached"
				is, ds := c.ICache.Stats(), c.DCache.Stats()
				tm.IHits, tm.IMisses, tm.IWritebacks = is.Hits, is.Misses, is.Writebacks
				tm.DHits, tm.DMisses, tm.DWritebacks = ds.Hits, ds.Misses, ds.Writebacks
			}
			entry[scenario] = tm
		}
		got[filepath.Base(name)] = entry
	}

	fixture := filepath.Join("testdata", "corpus_timing.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixture, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var want map[string]map[string]corpusTiming
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned timing (add it with -update)", name)
			continue
		}
		for scenario, tm := range g {
			if w[scenario] != tm {
				t.Errorf("%s %s: timing %+v, pinned %+v", name, scenario, tm, w[scenario])
			}
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned timing for a program no longer in the corpus", name)
		}
	}
}
