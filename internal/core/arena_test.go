package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/soc"
)

// arenaEnv builds the replay environment the fault campaigns use: a full
// multi-core golden run records the other cores' bus traffic, then the core
// under test runs alone against the replayed contention.
func arenaEnv(t *testing.T, active int, cached bool) (replayCfg soc.Config, job *CoreJob, budget int64) {
	t.Helper()
	c := cfg(active, cached, true, [3]int{})
	strat := func(int) Strategy {
		if cached {
			return CacheBased{WriteAllocate: true}
		}
		return Plain{}
	}
	jobs := jobsSameRoutine(active, fwdRoutine, strat)
	replayCfg, budget, err := RecordReplay(c, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return replayCfg, jobs[0], budget
}

// freshRun runs job once on a freshly built SoC in the replay environment
// (rebuild-per-fault semantics) and returns the result plus cache statistics.
func freshRun(t *testing.T, replayCfg soc.Config, job *CoreJob, budget int64, p fault.Plane) (RunResult, [2]cache.Stats) {
	t.Helper()
	c := replayCfg
	for id := 0; id < soc.NumCores; id++ {
		c.Cores[id].Active = id == 0
	}
	c.Cores[0].Plane = p
	var jobs [soc.NumCores]*CoreJob
	jobs[0] = job
	res, s, err := RunJobs(c, jobs, budget)
	if err != nil {
		t.Fatal(err)
	}
	return *res[0], socCacheStats(s)
}

func socCacheStats(s *soc.SoC) [2]cache.Stats {
	var out [2]cache.Stats
	if s.Cores[0].ICache != nil {
		out[0] = s.Cores[0].ICache.Stats()
		out[1] = s.Cores[0].DCache.Stats()
	}
	return out
}

// TestArenaResetMatchesFreshSoC is the reset-equivalence property: across
// cached/uncached and 1-3-core replay environments, a Reset() arena SoC
// reproduces the exact golden signature, cycle count, performance counters
// and cache statistics of a freshly built SoC — including immediately after
// a faulty (possibly wedged) run has trampled caches, memories and
// architectural state.
func TestArenaResetMatchesFreshSoC(t *testing.T) {
	// A spread of fault sites chosen to corrupt different layers: forwarded
	// data (wild stores), mux selects (wild control flow, often wedges) and
	// a stuck hazard line (stalls/hangs).
	dirty := []fault.Site{
		{Unit: fault.UnitFwd, Signal: fault.SigMuxData, Lane: 0, Operand: 0, Path: fault.PathEXL0, Bit: 31, Stuck: 1},
		{Unit: fault.UnitFwd, Signal: fault.SigMuxSel, Lane: 1, Operand: 1, Bit: 2, Stuck: 1},
		{Unit: fault.UnitHDCU, Signal: fault.SigCtl, Path: fault.CtlLoadUse, Stuck: 1},
	}
	for _, cached := range []bool{false, true} {
		for active := 1; active <= soc.NumCores; active++ {
			replayCfg, job, budget := arenaEnv(t, active, cached)
			wantRes, wantStats := freshRun(t, replayCfg, job, budget, nil)
			if !wantRes.OK {
				t.Fatalf("cached=%v active=%d: fresh replay golden failed", cached, active)
			}

			a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				sig, ok := a.Run(fault.None)
				if sig != wantRes.Signature || !ok {
					t.Fatalf("cached=%v active=%d %s: arena golden %08x ok=%v, fresh %08x",
						cached, active, when, sig, ok, wantRes.Signature)
				}
				if got := a.Last(); got != wantRes {
					t.Errorf("cached=%v active=%d %s: arena result %+v != fresh %+v",
						cached, active, when, got, wantRes)
				}
				if got := socCacheStats(a.SoC()); got != wantStats {
					t.Errorf("cached=%v active=%d %s: arena cache stats %+v != fresh %+v",
						cached, active, when, got, wantStats)
				}
			}
			check("first run")
			for i, site := range dirty {
				a.Run(fault.PlaneFor(site)) // trample state
				check([]string{"after data fault", "after sel fault", "after ctl fault"}[i])
			}
		}
	}
}

// TestArenaFaultyRunMatchesFreshSoC pins the per-fault path itself: for a
// sample of fault sites, a reset arena run must reproduce the signature and
// clean/crash classification of a freshly built SoC simulating the same
// fault with the full budget.
func TestArenaFaultyRunMatchesFreshSoC(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 2, false)
	sites := fault.ForwardingLogic(fault.ListOptions{DataBits: 32, BitStep: 8})
	fault.SortSites(sites)
	sites = fault.Sample(sites, 7)

	a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range sites {
		fresh, _ := freshRun(t, replayCfg, job, budget, fault.PlaneFor(site))
		sig, ok := a.Run(fault.PlaneFor(site))
		if ok != fresh.OK {
			t.Errorf("%v: arena ok=%v, fresh ok=%v", site, ok, fresh.OK)
			continue
		}
		// Crashed runs may be cut short by the divergence watchdogs, so
		// only clean runs pin the exact signature (campaign reports
		// canonicalise crashed signatures to 0 for the same reason).
		if ok && sig != fresh.Signature {
			t.Errorf("%v: arena signature %08x, fresh %08x", site, sig, fresh.Signature)
		}
	}
}

// TestArenaRunAllocationFree pins the Arena doc's claim that the per-run
// hot path is allocation-free: once warmed up, a checkpointed arena serves
// every transition site of the uncached and the cached single-core
// environment — full replays, checkpoint restores and golden shortcuts —
// without a single heap allocation.
func TestArenaRunAllocationFree(t *testing.T) {
	sites := fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 1})
	planes := make([]fault.Plane, len(sites))
	for i, s := range sites {
		planes[i] = fault.PlaneFor(s)
	}
	for _, cached := range []bool{false, true} {
		replayCfg, job, budget := arenaEnv(t, 1, cached)
		a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{CheckpointInterval: 256})
		if err != nil {
			t.Fatal(err)
		}
		runAll := func() {
			for _, p := range planes {
				a.Run(p)
			}
		}
		// AllocsPerRun calls runAll once untimed first: that pass warms up
		// the fetch queues, decode cache and dirty-page lists.
		if n := testing.AllocsPerRun(1, runAll); n != 0 {
			t.Errorf("cached=%v: %v allocations serving %d transition sites, want 0 (stats %+v)",
				cached, n, len(planes), a.Stats())
		}
	}
}
