package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sbst"
	"repro/internal/soc"
)

// ---------------------------------------------------------------------------
// Table III: ICU and HDCU fault coverage, single-core without caches versus
// multi-core with the cache-based strategy; plain multi-core execution
// fails outright.

// TableIIIRow is one row of Table III.
type TableIIIRow struct {
	Core   string
	Module string // "ICU" or "HDCU"
	Faults int
	// SingleFC: plain execution, single core, no caches (the paper's
	// baseline where signatures are stable but flash latency limits
	// excitation).
	SingleFC float64
	// MultiCacheFC: three active cores, cache-based strategy.
	MultiCacheFC float64
	// MultiNoCacheFails reports that plain multi-core execution never
	// reproduced the single-core golden signature (the test "inevitably
	// failed in any configuration").
	MultiNoCacheFails bool
}

// tableIIIICUReps keeps the ICU routine short for fault grading (each rep
// adds interrupt round-trips without adding new fault excitation).
const tableIIIICUReps = 2

func icuRoutineFor(id int) *sbst.Routine {
	return sbst.NewICUTest(sbst.ICUOptions{DataBase: dataBaseFor(id), TriggerReps: tableIIIICUReps})
}

func hdcuRoutineFor(id int) *sbst.Routine {
	return sbst.NewHDCUTest(sbst.HDCUOptions{DataBase: dataBaseFor(id)})
}

// TableIII fault-grades the interrupt control unit and hazard detection
// control unit per core.
func TableIII(o Options) ([]TableIIIRow, error) {
	defer o.span("table3")()
	type module struct {
		name  string
		mk    func(id int) *sbst.Routine
		sites func(id int) []fault.Site
	}
	modules := []module{
		{
			name: "ICU",
			mk:   icuRoutineFor,
			sites: func(id int) []fault.Site {
				return fault.ICU(fault.ListOptions{BitStep: 1})
			},
		},
		{
			name: "HDCU",
			mk:   hdcuRoutineFor,
			sites: func(id int) []fault.Site {
				s := fault.HDCU(fault.ListOptions{BitStep: 1})
				return append(s, fault.PerfCounters(fault.ListOptions{BitStep: o.bitStep()})...)
			},
		},
	}

	var rows []TableIIIRow
	for id := 0; id < soc.NumCores; id++ {
		for _, m := range modules {
			sites := m.sites(id)
			fault.SortSites(sites)
			if o.Quick {
				sites = fault.Sample(sites, 2)
			}

			// Single-core, no caches, plain execution.
			singleRep, err := runCampaign(o, id, singleCoreConfig(id, false),
				moduleJobs(id, 1, m.mk, func(int) core.Strategy { return core.Plain{} }), sites)
			if err != nil {
				return nil, fmt.Errorf("table III %s core %s single: %w", m.name, coreName(id), err)
			}

			// Multi-core, cache-based.
			multiRep, err := runCampaign(o, id, baseConfig(3, true),
				moduleJobs(id, 3, m.mk,
					func(int) core.Strategy { return core.CacheBased{WriteAllocate: true} }), sites)
			if err != nil {
				return nil, fmt.Errorf("table III %s core %s multi: %w", m.name, coreName(id), err)
			}

			fails, err := multiNoCacheFails(id, m.mk, singleRep.Golden, o)
			if err != nil {
				return nil, err
			}

			rows = append(rows, TableIIIRow{
				Core:              coreName(id),
				Module:            m.name,
				Faults:            len(sites),
				SingleFC:          singleRep.Coverage(),
				MultiCacheFC:      multiRep.Coverage(),
				MultiNoCacheFails: fails,
			})
		}
	}
	return rows, nil
}

// singleCoreConfig activates only core id.
func singleCoreConfig(id int, cached bool) soc.Config {
	cfg := soc.DefaultConfig()
	for k := 0; k < soc.NumCores; k++ {
		cfg.Cores[k].Active = k == id
		cfg.Cores[k].CachesOn = cached
		cfg.Cores[k].WriteAlloc = true
	}
	return cfg
}

// moduleJobs builds jobs where every active core runs its own copy of the
// module routine.
func moduleJobs(underTest, active int, mk func(id int) *sbst.Routine, strat func(id int) core.Strategy) [soc.NumCores]*core.CoreJob {
	var jobs [soc.NumCores]*core.CoreJob
	n := active
	if underTest >= n {
		n = underTest + 1
	}
	for id := 0; id < n; id++ {
		if active == 1 && id != underTest {
			continue
		}
		jobs[id] = &core.CoreJob{
			Routine:  mk(id),
			Strategy: strat(id),
			CodeBase: positions()[id%3] + uint32(id)*0x8000,
		}
	}
	return jobs
}

// multiNoCacheFails checks that across several plain multi-core
// configurations the routine never reproduces the single-core golden.
func multiNoCacheFails(id int, mk func(id int) *sbst.Routine, golden uint32, o Options) (bool, error) {
	pads := []uint32{0, 8}
	if o.Quick {
		pads = pads[:1]
	}
	for _, pad := range pads {
		jobs := moduleJobs(id, 3, mk, func(int) core.Strategy { return core.Plain{} })
		for _, j := range jobs {
			if j != nil {
				j.AlignPad = pad
			}
		}
		results, _, err := core.RunJobs(baseConfig(3, false), jobs, maxRunCycles)
		if err != nil {
			return false, err
		}
		if results[id].Signature == golden {
			return false, nil
		}
	}
	return true, nil
}

// RenderTableIII formats the rows like the paper's Table III.
func RenderTableIII(rows []TableIIIRow) string {
	var sb strings.Builder
	sb.WriteString("Table III: ICU and HDCU fault simulation results\n")
	sb.WriteString("Core | Module | # of Faults | FC single-core no caches [%] | FC multi-core with caches [%] | plain multi-core\n")
	for _, r := range rows {
		status := "FAILS (unstable signature)"
		if !r.MultiNoCacheFails {
			status = "unexpectedly passed"
		}
		fmt.Fprintf(&sb, "%4s | %6s | %11d | %28.2f | %29.2f | %s\n",
			r.Core, r.Module, r.Faults, r.SingleFC, r.MultiCacheFC, status)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table IV: TCM-based versus cache-based execution of the imprecise
// interrupt routine.

// TableIVRow is one strategy's cost line.
type TableIVRow struct {
	Approach       string
	MemoryOverhead int   // bytes permanently reserved
	ExecutionTime  int64 // clock cycles
	Signature      uint32
}

// TableIV compares the two deterministic execution strategies on the ICU
// routine (single core, as in the paper's measurement).
func TableIV(o Options) ([]TableIVRow, error) {
	defer o.span("table4")()
	mk := func() *sbst.Routine {
		return sbst.NewICUTest(sbst.ICUOptions{DataBase: dataBaseFor(0)})
	}
	var rows []TableIVRow

	tcm := core.TCMBased{CoreID: 0}
	tcmRes, _, err := core.RunSingle(singleCoreConfig(0, false), 0,
		&core.CoreJob{Routine: mk(), Strategy: tcm, CodeBase: soc.CodeLow}, maxRunCycles)
	if err != nil {
		return nil, err
	}
	if !tcmRes.OK {
		return nil, fmt.Errorf("table IV: tcm run failed")
	}
	tcmOv, err := tcm.MemoryOverhead(mk())
	if err != nil {
		return nil, err
	}
	rows = append(rows, TableIVRow{
		Approach: "TCM-based", MemoryOverhead: tcmOv,
		ExecutionTime: tcmRes.Cycles, Signature: tcmRes.Signature,
	})

	cb := core.CacheBased{WriteAllocate: true}
	cbRes, _, err := core.RunSingle(singleCoreConfig(0, true), 0,
		&core.CoreJob{Routine: mk(), Strategy: cb, CodeBase: soc.CodeLow}, maxRunCycles)
	if err != nil {
		return nil, err
	}
	if !cbRes.OK {
		return nil, fmt.Errorf("table IV: cache run failed")
	}
	rows = append(rows, TableIVRow{
		Approach: "Cache-based", MemoryOverhead: 0,
		ExecutionTime: cbRes.Cycles, Signature: cbRes.Signature,
	})
	return rows, nil
}

// RenderTableIV formats the rows like the paper's Table IV.
func RenderTableIV(rows []TableIVRow) string {
	var sb strings.Builder
	sb.WriteString("Table IV: TCM-based versus cache-based approaches (imprecise interrupts routine)\n")
	sb.WriteString("Approach    | Overall memory overhead [bytes] | Execution time [clock cycles]\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s | %31d | %29d\n", r.Approach, r.MemoryOverhead, r.ExecutionTime)
	}
	if len(rows) == 2 && rows[0].Signature == rows[1].Signature {
		fmt.Fprintf(&sb, "(both strategies produce the same signature %08x and hence the same fault coverage)\n",
			rows[0].Signature)
	}
	return sb.String()
}
