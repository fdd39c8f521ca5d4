package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/soc"
)

// Spec is the wire form of a campaign request: the paper-shaped knobs that
// fully determine a campaign as a pure function. Everything else about a
// job — worker count, shard size, engine mode — is execution strategy and
// deliberately kept out, so it can vary between submissions without
// changing the campaign's content address.
type Spec struct {
	// Routine is the self-test routine name (sbst.NewRoutineByName);
	// empty means "forwarding".
	Routine string `json:"routine,omitempty"`
	// Core is the core under test: 0 (A), 1 (B) or 2 (C, 64-bit lanes).
	Core int `json:"core,omitempty"`
	// Strategy is the execution strategy: "plain", "cache" or "tcm";
	// empty means "cache".
	Strategy string `json:"strategy,omitempty"`
	// Multicore replays 3-core bus contention around the core under test.
	// False activates core 0 and the core under test only: core 0 then
	// runs with no replayed traffic, while a core-1 or core-2 spec still
	// replays core 0's bus traffic.
	Multicore bool `json:"multicore,omitempty"`
	// BitStep enumerates every Nth data bit of wide sites (campaign
	// reduction); <= 0 means 1 (every bit).
	BitStep int `json:"bitstep,omitempty"`
	// Faults selects the fault model: "stuckat" (default) or "transition"
	// (forwarding routine only).
	Faults string `json:"faults,omitempty"`
}

// Normalized fills the documented defaults and validates the spec, so
// every representation of the same campaign hashes to the same content
// address.
func (s Spec) Normalized() (Spec, error) {
	if s.Routine == "" {
		s.Routine = "forwarding"
	}
	if s.Strategy == "" {
		s.Strategy = "cache"
	}
	if s.BitStep <= 0 {
		s.BitStep = 1
	}
	if s.Faults == "" {
		s.Faults = "stuckat"
	}
	if s.Core < 0 || s.Core >= soc.NumCores {
		return s, fmt.Errorf("serve: core %d outside 0..%d", s.Core, soc.NumCores-1)
	}
	switch s.Strategy {
	case "plain", "cache", "tcm":
	default:
		return s, fmt.Errorf("serve: unknown strategy %q", s.Strategy)
	}
	switch s.Faults {
	case "stuckat":
	case "transition":
		if s.Routine != "forwarding" {
			return s, fmt.Errorf("serve: fault model transition requires the forwarding routine")
		}
	default:
		return s, fmt.Errorf("serve: unknown fault model %q", s.Faults)
	}
	return s, nil
}

// Campaign is one fully built campaign (replay environment, job under
// test, ordered fault universe, per-run budget) with the request it was
// built from and its content-addressed identity. It is what the server
// fingerprints at submission and what a worker simulates shards of — both
// sides build it from the same Spec, so they agree bit for bit.
type Campaign struct {
	// Spec is the normalized request this campaign was built from.
	Spec Spec
	// Header is the campaign's content address (core.Campaign.Fingerprint
	// over program, universe and environment).
	Header fault.JournalHeader
	// Campaign is the built campaign; its fields are promoted.
	*core.Campaign
}

// Build constructs the campaign: routines and strategy for every active
// core, the fault universe (core.Universe), and the replay environment and
// budget core.NewCampaign derives from one golden full-system run.
// Construction is deterministic — two Builds of one normalized Spec (in
// any process) produce identical programs, universes, traffic and
// fingerprints. This is the exact construction cmd/faultsim performs, so
// a service job and a local faultsim run of the same spec are the same
// pure function.
func (s Spec) Build() (*Campaign, error) {
	spec, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	var strat core.Strategy
	cached := false
	switch spec.Strategy {
	case "plain":
		strat = core.Plain{}
	case "cache":
		strat = core.CacheBased{WriteAllocate: true}
		cached = true
	case "tcm":
		strat = core.TCMBased{CoreID: spec.Core}
	}
	sites, err := core.Universe(spec.Routine, spec.Faults, spec.Core, spec.BitStep)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	// Environment: the other cores run the same routine for contention.
	active := 1
	if spec.Multicore {
		active = soc.NumCores
	}
	cfg, jobs, err := core.PlacedJobs(spec.Routine, spec.Core, active, soc.CodeLow, 0, cached)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// Spec.Build keeps the layout its content addresses pin: every image
	// in flash bank 0, 64 KiB apart, with plain contender cores.
	for id, j := range jobs {
		if j != nil {
			j.CodeBase, j.Strategy = soc.CodeLow+uint32(id)*0x10000, core.Plain{}
		}
	}
	jobs[spec.Core].Strategy = strat

	c, err := core.NewCampaign(cfg, jobs, spec.Core, sites)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	header, err := c.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("serve: fingerprint: %w", err)
	}
	return &Campaign{Spec: spec, Header: header, Campaign: c}, nil
}
