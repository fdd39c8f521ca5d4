package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// Options tunes experiment cost.
type Options struct {
	// Quick reduces fault universes (bit sampling) and scenario counts so
	// the whole suite runs in seconds; the full setting is for cmd/repro.
	Quick bool
	// Workers bounds fault-simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Reference runs the campaigns in the arena's full-budget reference
	// mode (no early exit, no checkpointing, no golden-verdict shortcut)
	// instead of the optimized default. Reports are bit-identical across
	// modes; see core.CampaignOptions.Reference.
	Reference bool
	// JournalDir, when non-empty, journals every campaign's verdicts to a
	// content-addressed file in this directory and resumes from whatever
	// those files already settle — an interrupted table sweep re-runs only
	// unsettled sites (see internal/fault's Journal).
	JournalDir string
	// Telemetry, when non-nil, receives every campaign's metrics plus a
	// per-table span histogram (experiment_<table>_ns). Nil disables
	// metrics at zero cost; see core.CampaignOptions.Telemetry.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives every campaign's event stream plus
	// one span event per table sweep.
	Events *telemetry.EventLog
	// Progress > 0 forwards a progress-line interval to every campaign;
	// see core.CampaignOptions.Progress.
	Progress time.Duration
}

// span times one table sweep: started on entry, the returned func records
// an experiment_<name>_ns span in the registry and emits a span event.
// Both sinks detached makes it a no-op.
func (o Options) span(name string) func() {
	if o.Telemetry == nil && o.Events == nil {
		return func() {}
	}
	sp := o.Telemetry.StartSpan("experiment_" + name + "_ns")
	start := time.Now()
	return func() {
		sp.End()
		if o.Events != nil {
			o.Events.Emit(telemetry.Event{Kind: telemetry.EventSpan, Name: name,
				ElapsedNs: time.Since(start).Nanoseconds()})
		}
	}
}

func (o Options) bitStep() int {
	if o.Quick {
		return 8
	}
	return 1
}

// maxRunCycles bounds any single simulation (watchdog).
const maxRunCycles = 6_000_000

// coreName maps core IDs to the paper's labels.
func coreName(id int) string { return string(rune('A' + id)) }

// ---------------------------------------------------------------------------
// Table I: stalls due to the memory subsystem vs number of active cores.

// TableIRow is one row of Table I.
type TableIRow struct {
	ActiveCores int
	IFStalls    int64 // clock cycles, summed over active cores, averaged over phases
	MemStalls   int64
}

// TableI runs the generic STL in parallel on 1..3 cores (no caches, as in
// the paper's baseline) and reports the stall cycles counted by the
// performance counters, averaged across start-phase scenarios.
func TableI(o Options) ([]TableIRow, error) {
	defer o.span("table1")()
	phases := [][soc.NumCores]int{{0, 0, 0}, {0, 11, 23}, {7, 0, 17}}
	if o.Quick {
		phases = phases[:2]
	}
	var rows []TableIRow
	for n := 1; n <= soc.NumCores; n++ {
		var ifSum, memSum int64
		for _, ph := range phases {
			cfg, jobs, err := core.PlacedJobs("stl", 0, n, soc.CodeLow, 0, false)
			if err != nil {
				return nil, err
			}
			for id := 0; id < n; id++ {
				cfg.Cores[id].StartDelay = ph[id]
			}
			results, _, err := core.RunJobs(cfg, jobs, maxRunCycles)
			if err != nil {
				return nil, err
			}
			for id := 0; id < n; id++ {
				if !results[id].OK {
					return nil, fmt.Errorf("experiments: table I: core %d failed", id)
				}
				ifSum += int64(results[id].IFStall)
				memSum += int64(results[id].MemStall)
			}
		}
		rows = append(rows, TableIRow{
			ActiveCores: n,
			IFStalls:    ifSum / int64(len(phases)),
			MemStalls:   memSum / int64(len(phases)),
		})
	}
	return rows, nil
}

// RenderTableI formats the rows like the paper's Table I.
func RenderTableI(rows []TableIRow) string {
	var sb strings.Builder
	sb.WriteString("Table I: multi-core STL execution, stalls due to the memory subsystem\n")
	sb.WriteString("# Active Cores | IF stalls [cycles] | MEM stalls [cycles]\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%14d | %18d | %19d\n", r.ActiveCores, r.IFStalls, r.MemStalls)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Shared fault-campaign plumbing.

// scenarioSpec is one multi-core SoC configuration of the Table II sweep.
type scenarioSpec struct {
	active int    // number of active cores
	pos    uint32 // code position of the core under test
	pad    uint32 // alignment padding in bytes
}

func tableIIScenarios(quick bool) []scenarioSpec {
	var out []scenarioSpec
	for _, active := range []int{2, 3} {
		for _, pos := range soc.CodePositions {
			for _, pad := range []uint32{0, 8, 16} {
				out = append(out, scenarioSpec{active, pos, pad})
			}
		}
	}
	if quick {
		// Keep a diverse subset: both core counts, all positions.
		out = []scenarioSpec{
			{2, soc.CodeLow, 0}, {3, soc.CodeMid, 8},
			{3, soc.CodeHigh, 16}, {3, soc.CodeLow, 8},
		}
	}
	return out
}

// runCampaign builds the campaign of core id in the multi-core scenario
// (cfg, jobs) — golden run and bus traffic recorded by core.NewCampaign —
// then fault-simulates core id against the replayed traffic. Fault
// detection compares faulty runs against the golden of the same replayed
// environment, so the campaign is internally consistent even though
// replayed arbitration can differ slightly from the full system (replay
// masters occupy different round-robin slots).
func runCampaign(o Options, id int, cfg soc.Config, jobs [soc.NumCores]*core.CoreJob, sites []fault.Site) (fault.Report, error) {
	c, err := core.NewCampaign(cfg, jobs, id, sites)
	if err != nil {
		return fault.Report{}, fmt.Errorf("experiments: %w", err)
	}
	opt := core.CampaignOptions{Workers: o.Workers, Reference: o.Reference,
		Telemetry: o.Telemetry, Events: o.Events, Progress: o.Progress}
	if o.JournalDir != "" {
		// One content-addressed journal per campaign: resuming an
		// interrupted sweep settles finished campaigns entirely from disk.
		header, err := c.Fingerprint()
		if err != nil {
			return fault.Report{}, err
		}
		opt.Journal = filepath.Join(o.JournalDir, "campaign-"+header.Key()+".journal")
		opt.Resume = true
	}
	rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget, opt)
	if err != nil {
		return fault.Report{}, err
	}
	if !rep.GoldenOK {
		return rep, fmt.Errorf("experiments: replay golden run failed on core %d", id)
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Table II: forwarding-logic fault coverage, min-max without caches versus
// stable coverage with the cache-based strategy.

// TableIIRow is one row of Table II.
type TableIIRow struct {
	Core      string
	Faults    int
	MinFC     float64 // no caches, no PCs: minimum over scenarios
	MaxFC     float64
	CacheFC   float64 // cache-based strategy
	Scenarios int
}

// TableII fault-grades the forwarding logic of each core.
func TableII(o Options) ([]TableIIRow, error) {
	return forwardingSweep(o, "table2", "core", "stuckat", o.bitStep())
}

// forwardingSweep fault-grades the forwarding logic of each core over its
// core.Universe under the faults model at the given bit step: coverage
// per plain multi-core scenario (no caches, no PCs) reduced to min-max,
// plus one representative 3-core scenario under the cache-based strategy
// (still no PCs, matching the paper's column). span names the sweep's
// telemetry span; label prefixes its errors.
func forwardingSweep(o Options, span, label, faults string, step int) ([]TableIIRow, error) {
	defer o.span(span)()
	var rows []TableIIRow
	for id := 0; id < soc.NumCores; id++ {
		sites, err := core.Universe("forwarding", faults, id, step)
		if err != nil {
			return nil, err
		}

		var reports []fault.Report
		for _, spec := range tableIIScenarios(o.Quick) {
			if id >= spec.active {
				continue // core not active in this scenario
			}
			cfg, jobs, err := core.PlacedJobs("forwarding", id, spec.active, spec.pos, spec.pad, false)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", label, coreName(id), err)
			}
			rep, err := runCampaign(o, id, cfg, jobs, sites)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", label, coreName(id), err)
			}
			reports = append(reports, rep)
		}
		mm := fault.NewMinMax(reports)

		cfg, jobs, err := core.PlacedJobs("forwarding", id, 3, soc.CodeLow, 0, true)
		if err != nil {
			return nil, fmt.Errorf("%s %s cached: %w", label, coreName(id), err)
		}
		cacheRep, err := runCampaign(o, id, cfg, jobs, sites)
		if err != nil {
			return nil, fmt.Errorf("%s %s cached: %w", label, coreName(id), err)
		}

		rows = append(rows, TableIIRow{
			Core:      coreName(id),
			Faults:    len(sites),
			MinFC:     mm.Min,
			MaxFC:     mm.Max,
			CacheFC:   cacheRep.Coverage(),
			Scenarios: len(reports),
		})
	}
	return rows, nil
}

// RenderTableII formats the rows like the paper's Table II.
func RenderTableII(rows []TableIIRow) string {
	var sb strings.Builder
	sb.WriteString("Table II: forwarding logic fault simulation results\n")
	sb.WriteString("Core | # of Faults | min - max FC [%] (no caches, no PCs) | FC [%] (caches, no PCs)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%4s | %11d | %17.2f - %.2f | %23.2f\n",
			r.Core, r.Faults, r.MinFC, r.MaxFC, r.CacheFC)
	}
	return sb.String()
}
