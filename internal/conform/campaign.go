package conform

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/soc"
)

// Campaign-level conformance: the optimized arena (early exit on
// observable divergence, golden-run checkpointing, golden-verdict
// shortcuts) and the reference arena (NoEarlyExit: full budget per run, no
// shortcuts) must produce bit-identical fault reports on any universe, in
// any environment. The fuzz scenario draws random environments and checks
// the *full* universe — no site cap — which is affordable precisely
// because both sides are arenas. Every environment is a core.Campaign
// (core.PlacedJobs + core.NewCampaign); CompareEngines is also the
// building block the fixed mode-equivalence tests use.

// randomPlacement draws a random Table II-shaped environment for
// core.PlacedJobs: two or three active cores, the core under test, its
// code position and padding, and plain or cached execution. The draw order
// is part of every seed's meaning: changing it replays different
// environments.
func randomPlacement(rng *rand.Rand) (active, underTest int, pos, pad uint32, cached bool) {
	active = 2 + rng.Intn(soc.NumCores-1)
	underTest = rng.Intn(active)
	pos = soc.CodePositions[rng.Intn(len(soc.CodePositions))]
	pad = uint32(8 * rng.Intn(3))
	cached = rng.Intn(2) == 0
	return active, underTest, pos, pad, cached
}

// CompareEngines runs campaign c under both arena modes (optimized and
// reference) against its one recorded environment and returns a
// description of any report divergence ("" when bit-identical).
func CompareEngines(c *core.Campaign) (string, error) {
	ref, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget,
		core.CampaignOptions{Reference: true})
	if err != nil {
		return "", fmt.Errorf("reference arena: %w", err)
	}
	opt, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget,
		core.CampaignOptions{})
	if err != nil {
		return "", fmt.Errorf("optimized arena: %w", err)
	}
	return DiffReports(ref, opt, c.Sites), nil
}

// DiffReports compares two campaign reports site by site and summarises
// any divergence ("" when bit-identical). By convention the first report
// is the reference-mode one.
func DiffReports(ref, opt fault.Report, sites []fault.Site) string {
	var diffs []string
	if len(ref.Results) != len(opt.Results) {
		diffs = append(diffs, fmt.Sprintf("result count %d (reference) != %d (optimized)",
			len(ref.Results), len(opt.Results)))
	}
	if ref.Golden != opt.Golden || ref.GoldenOK != opt.GoldenOK {
		diffs = append(diffs, fmt.Sprintf("golden %08x/%v (reference) != %08x/%v (optimized)",
			ref.Golden, ref.GoldenOK, opt.Golden, opt.GoldenOK))
	}
	if ref.Detected != opt.Detected {
		diffs = append(diffs, fmt.Sprintf("detected %d (reference) != %d (optimized)",
			ref.Detected, opt.Detected))
	}
	for i := range ref.Results {
		if i >= len(opt.Results) {
			diffs = append(diffs, fmt.Sprintf("optimized report short: %d sites, reference %d",
				len(opt.Results), len(ref.Results)))
			break
		}
		if ref.Results[i] != opt.Results[i] {
			diffs = append(diffs, fmt.Sprintf("%v: reference %+v, optimized %+v",
				sites[i], ref.Results[i], opt.Results[i]))
		}
	}
	return renderDiffs(diffs)
}

// runCampaignSeed is one iteration of the campaign fuzz scenario: a full
// fault universe (no sampling — the reference arena can afford it) through
// a random environment, both arena modes, reports compared bit by bit.
func runCampaignSeed(seed int64) *Mismatch {
	rng := rand.New(rand.NewSource(seed))

	active, underTest, pos, pad, cached := randomPlacement(rng)

	bits := 32
	if underTest == 2 {
		bits = 64
	}
	var module string
	var sites []fault.Site
	switch rng.Intn(4) {
	case 0:
		module = "forwarding"
		sites = fault.ForwardingLogic(fault.ListOptions{DataBits: bits, BitStep: 8})
	case 1:
		module = "forwarding"
		sites = fault.TransitionFaults(fault.ListOptions{DataBits: bits, BitStep: 8})
	case 2:
		module = "hdcu"
		sites = fault.HDCU(fault.ListOptions{DataBits: bits, BitStep: 8})
	default:
		module = "icu"
		sites = fault.ICU(fault.ListOptions{BitStep: 1})
	}
	fault.SortSites(sites)

	cfg, jobs, err := core.PlacedJobs(module, underTest, active, pos, pad, cached)
	if err != nil {
		return &Mismatch{Scenario: "campaign", Seed: seed, Detail: err.Error()}
	}
	c, err := core.NewCampaign(cfg, jobs, underTest, sites)
	if err != nil {
		return &Mismatch{Scenario: "campaign", Seed: seed, Detail: err.Error()}
	}
	recheck := func(sub []fault.Site) string {
		part := *c
		part.Sites = sub
		detail, err := CompareEngines(&part)
		if err != nil {
			return err.Error()
		}
		return detail
	}
	if detail := recheck(sites); detail != "" {
		return &Mismatch{
			Scenario:     "campaign",
			Seed:         seed,
			Detail:       fmt.Sprintf("%s campaign (%d cores, core %d under test): %s", module, active, underTest, detail),
			Sites:        sites,
			recheckSites: recheck,
		}
	}
	return nil
}
