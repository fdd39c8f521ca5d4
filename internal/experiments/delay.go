package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/soc"
)

// Delay-fault extension — the paper's future-work note made concrete:
// transition faults on the forwarding data lines need a *timed two-pattern
// sequence* through the same path, so their coverage is even more exposed
// to issue-packet reshuffling than stuck-at coverage. This experiment runs
// the Table II sweep with the transition-fault universe.

// DelayRow is one core's delay-fault results.
type DelayRow struct {
	Core      string
	Faults    int
	MinFC     float64 // plain multi-core execution, across scenarios
	MaxFC     float64
	CacheFC   float64 // cache-based strategy
	Scenarios int
}

// DelayFaults runs the transition-fault campaigns.
func DelayFaults(o Options) ([]DelayRow, error) {
	defer o.span("delay")()
	var rows []DelayRow
	for id := 0; id < soc.NumCores; id++ {
		bits := 32
		if id == 2 {
			bits = 64
		}
		step := o.bitStep() * 2 // transition campaigns run two kinds per line
		sites := fault.TransitionFaults(fault.ListOptions{DataBits: bits, BitStep: step})
		fault.SortSites(sites)

		var reports []fault.Report
		for _, spec := range tableIIScenarios(o.Quick) {
			if id >= spec.active {
				continue
			}
			rep, err := runCampaign(o, id, baseConfig(spec.active, false),
				forwardingJobs(id, spec, func(int) core.Strategy { return core.Plain{} }, false), sites)
			if err != nil {
				return nil, fmt.Errorf("delay core %s: %w", coreName(id), err)
			}
			reports = append(reports, rep)
		}
		mm := fault.NewMinMax(reports)

		spec := scenarioSpec{active: 3, pos: soc.CodeLow, pad: 0}
		cacheRep, err := runCampaign(o, id, baseConfig(3, true),
			forwardingJobs(id, spec,
				func(int) core.Strategy { return core.CacheBased{WriteAllocate: true} }, false), sites)
		if err != nil {
			return nil, fmt.Errorf("delay core %s cached: %w", coreName(id), err)
		}
		rows = append(rows, DelayRow{
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

// RenderDelay formats the extension results.
func RenderDelay(rows []DelayRow) string {
	var sb strings.Builder
	sb.WriteString("Extension (paper future work): transition/delay faults on the forwarding lines\n")
	sb.WriteString("Core | # of Faults | min - max FC [%] (no caches) | FC [%] (cache-based)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%4s | %11d | %12.2f - %.2f | %20.2f\n",
			r.Core, r.Faults, r.MinFC, r.MaxFC, r.CacheFC)
	}
	sb.WriteString("(two-pattern sequences only survive intact inside the execution loop,\n")
	sb.WriteString(" so the strategy's advantage grows versus the stuck-at campaign)\n")
	return sb.String()
}
