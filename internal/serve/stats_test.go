package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// TestGoldenStatsPinned rebuilds every spec keyed in the repo benchmark's
// committed stats.json and requires its reference-mode golden run to
// reproduce the file's exact counters: cycles, retired instructions, the
// three stall kinds, dual issues, cache misses and write-backs, and the
// transactions and wait cycles of the core's instruction and data bus
// masters. Spec.Build keeps its own code layout, so this pins the timing
// of that layout; the test reads the file and keeps no copy.
func TestGoldenStatsPinned(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "expected", "stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]int64
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != 5 {
		t.Fatalf("stats.json keys %d specs, want 5", len(want))
	}
	for name, stats := range want {
		spec, err := parseSpecName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		a, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{NoEarlyExit: true})
		if err != nil {
			t.Fatalf("%s: NewArena: %v", name, err)
		}
		a.Run(fault.None)
		r, u := a.Last(), a.SoC().Cores[c.Core]
		got := map[string]int64{
			"soc.golden_cycles": r.Cycles,
			"cpu.instret":       int64(r.Instret),
			"cpu.if_stall":      int64(r.IFStall),
			"cpu.mem_stall":     int64(r.MemStall),
			"cpu.haz_stall":     int64(r.HazStall),
			"cpu.dual_issue":    int64(r.Issued2),
		}
		var im, dm, wb int
		if u.ICache != nil {
			im, dm, wb = u.ICache.Stats().Misses, u.DCache.Stats().Misses, u.DCache.Stats().Writebacks
		}
		got["cache.i_misses"], got["cache.d_misses"], got["cache.d_writebacks"] = int64(im), int64(dm), int64(wb)
		// Core id's bus masters: instruction port 2*id, data port 2*id+1.
		var tx, wait int
		for _, m := range []int{2 * c.Core, 2*c.Core + 1} {
			s := a.SoC().Bus.StatsFor(m)
			tx, wait = tx+s.Transactions, wait+s.WaitCycles
		}
		got["bus.transactions"], got["bus.wait_cycles"] = int64(tx), int64(wait)

		if len(stats) != len(got) {
			t.Errorf("%s: stats.json has %d counters, want %d", name, len(stats), len(got))
		}
		for k, v := range got {
			if w, ok := stats[k]; !ok || w != v {
				t.Errorf("%s: %s = %d, want %d", name, k, v, w)
			}
		}
	}
}

// parseSpecName inverts the benchmark's spec naming,
// <routine>-core<N>-<strategy>-<solo|multicore>-<faults>-bitstep<N>.
func parseSpecName(name string) (Spec, error) {
	p := strings.Split(name, "-")
	if len(p) != 6 || (p[3] != "solo" && p[3] != "multicore") {
		return Spec{}, fmt.Errorf("malformed spec name %q", name)
	}
	s := Spec{Routine: p[0], Strategy: p[2], Multicore: p[3] == "multicore", Faults: p[4]}
	if _, err := fmt.Sscanf(p[1], "core%d", &s.Core); err != nil {
		return Spec{}, fmt.Errorf("spec name %q: %v", name, err)
	}
	if _, err := fmt.Sscanf(p[5], "bitstep%d", &s.BitStep); err != nil {
		return Spec{}, fmt.Errorf("spec name %q: %v", name, err)
	}
	return s, nil
}
