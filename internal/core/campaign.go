package core

import (
	"fmt"
	"hash/fnv"

	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/soc"
)

// Campaign budget policy: every fault run may take budgetFactor times the
// golden run's cycles plus budgetSlack before the watchdog calls it hung.
// The arena's early-exit watchdogs apply the same factor and slack at
// store-gap granularity (see Arena.calibrate). goldenCap bounds the
// fault-free full-system run itself.
const (
	budgetFactor = 8
	budgetSlack  = 20_000
	goldenCap    = 10_000_000
)

// Campaign is one fully built fault campaign: the core under test, its
// job and ordered fault universe, the replay environment it runs in and
// the per-run cycle budget. Every paper table, service job and conform
// environment builds its campaigns through NewCampaign.
type Campaign struct {
	// Cfg is the replay SoC configuration: the recorded golden bus traffic
	// of every other core feeds a dedicated replay master.
	Cfg soc.Config
	// Core is the core under test.
	Core int
	// Job is the core under test's routine + strategy job.
	Job *CoreJob
	// Sites is the ordered fault universe.
	Sites []fault.Site
	// Budget is the per-run cycle budget derived from the golden run.
	Budget int64
}

// NewCampaign is the one campaign builder: it runs the fault-free
// full-system golden of jobs under cfg while recording every core's bus
// traffic except core id's, requires a clean run on core id, and returns
// the campaign of core id over sites, simulated alone against that traffic
// with a budget derived from the golden cycle count. It hashes nothing: a
// caller that needs the content address asks Fingerprint.
func NewCampaign(cfg soc.Config, jobs [soc.NumCores]*CoreJob, id int, sites []fault.Site) (*Campaign, error) {
	var rec *bus.Recorder
	results, _, err := RunJobsSetup(cfg, jobs, goldenCap, func(s *soc.SoC) {
		rec = s.AttachRecorder(id)
	})
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	golden := results[id]
	if !golden.OK {
		return nil, fmt.Errorf("golden run failed on core %d", id)
	}
	cfg.Replay = rec.EventsByMaster()
	return &Campaign{Cfg: cfg, Core: id, Job: jobs[id], Sites: sites,
		Budget: golden.Cycles*budgetFactor + budgetSlack}, nil
}

// Fingerprint content-addresses the campaign as a pure function: the
// assembled program image and routine data tables, the ordered fault
// universe, and the execution environment (core, budget, SoC configuration
// with replayed traffic). Two campaigns with equal fingerprints compute
// identical reports, which is what makes journaled verdicts transferable
// across process restarts.
func (c *Campaign) Fingerprint() (fault.JournalHeader, error) {
	return fingerprint(c.Cfg, c.Core, c.Job, c.Sites, c.Budget)
}

// fingerprint is Fingerprint over the campaign's parts.
func fingerprint(cfg soc.Config, id int, job *CoreJob, sites []fault.Site, budget int64) (fault.JournalHeader, error) {
	prog, err := buildProgram(job)
	if err != nil {
		return fault.JournalHeader{}, err
	}
	ph := fnv.New64a()
	fmt.Fprintf(ph, "base %08x:", prog.Base)
	for _, w := range prog.Words {
		fmt.Fprintf(ph, "%08x", w)
	}
	for _, r := range job.routines() {
		fmt.Fprintf(ph, "|data %08x:", r.DataBase)
		for _, w := range r.DataWords {
			fmt.Fprintf(ph, "%08x", w)
		}
	}
	eh := fnv.New64a()
	for k := 0; k < soc.NumCores; k++ {
		// Normalise exactly like NewArena/fallbackRun: only core id is
		// active and planes are per-run state, not environment.
		cfg.Cores[k].Active = k == id
		cfg.Cores[k].Plane = nil
	}
	fmt.Fprintf(eh, "core %d budget %d cfg %+v", id, budget, cfg)
	return fault.JournalHeader{
		Program:  fmt.Sprintf("%016x", ph.Sum64()),
		Universe: fault.HashSites(sites),
		Env:      fmt.Sprintf("%016x", eh.Sum64()),
		Sites:    len(sites),
	}, nil
}

// Universe is the sorted fault universe that grades routine ("forwarding",
// "hdcu" or "icu") on core id under a fault model: "stuckat" (the HDCU
// routine also grades the performance counters) or "transition"
// (forwarding only). Core C's forwarding network is 64 bits wide; bitStep
// enumerates every Nth data bit of wide sites.
func Universe(routine, faults string, id, bitStep int) ([]fault.Site, error) {
	bits := 32
	if id == 2 {
		bits = 64
	}
	o := fault.ListOptions{DataBits: bits, BitStep: bitStep}
	var sites []fault.Site
	switch routine + "/" + faults {
	case "forwarding/stuckat":
		sites = fault.ForwardingLogic(o)
	case "forwarding/transition":
		sites = fault.TransitionFaults(o)
	case "hdcu/stuckat":
		sites = append(fault.HDCU(o), fault.PerfCounters(o)...)
	case "icu/stuckat":
		sites = fault.ICU(o)
	default:
		return nil, fmt.Errorf("no %q fault universe for routine %q (want forwarding, hdcu or icu; transition on forwarding only)", faults, routine)
	}
	fault.SortSites(sites)
	return sites, nil
}
