package experiments_test

import (
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/soc"
)

// The reference (full-budget, no shortcuts) and optimized (early-exit,
// checkpointed) arena modes must produce bit-identical reports: same
// golden, same detected set, same signatures, same crash flags, site by
// site. The cross-checking machinery lives in internal/conform (which also
// fuzzes it over random universes and environments); these tests pin the
// equivalence on the fixed universes the paper's tables depend on.

// compareEngines builds the campaign of routine on core 0 in the
// core.PlacedJobs environment (active, pos, pad, cached) and compares the
// arena modes on it.
func compareEngines(t *testing.T, routine string, active int, pos, pad uint32, cached bool, sites []fault.Site) {
	t.Helper()
	cfg, jobs, err := core.PlacedJobs(routine, 0, active, pos, pad, cached)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCampaign(cfg, jobs, 0, sites)
	if err != nil {
		t.Fatal(err)
	}
	detail, err := conform.CompareEngines(c)
	if err != nil {
		t.Fatal(err)
	}
	if detail != "" {
		t.Errorf("arena modes disagree: %s", detail)
	}
}

// TestEngineEquivalenceForwarding compares the arena modes on the quick
// forwarding universe (stuck-at plus transition faults) in the uncached
// multi-core replay environment of Table II.
func TestEngineEquivalenceForwarding(t *testing.T) {
	sites := fault.ForwardingLogic(fault.ListOptions{DataBits: 32, BitStep: 8})
	sites = append(sites, fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 16})...)
	fault.SortSites(sites)

	compareEngines(t, "forwarding", 3, soc.CodeMid, 8, false, sites)
}

// TestEngineEquivalenceICU compares the arena modes on the full ICU
// universe under the cache-based strategy (Table III's multi-core arm),
// which additionally exercises cache reset between fault runs and the
// wedge-heavy ICU fault population. The universe is unsampled: the
// reference arena can afford it now that both sides reuse their SoCs.
func TestEngineEquivalenceICU(t *testing.T) {
	sites := fault.ICU(fault.ListOptions{BitStep: 1})
	fault.SortSites(sites)

	compareEngines(t, "icu", 3, soc.CodeLow, 0, true, sites)
}

// TestEngineEquivalenceFuzz runs a few iterations of the conform campaign
// fuzz scenario — random universes, random environments — from fixed
// seeds, so the randomized surface stays exercised in the ordinary test
// suite too.
func TestEngineEquivalenceFuzz(t *testing.T) {
	sc, err := conform.Lookup("campaign")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		if m := sc.Run(seed); m != nil {
			t.Errorf("%v", m)
		}
	}
}
