// Quickstart: wrap a self-test routine with the paper's cache-based
// strategy and watch its signature stay identical across multi-core SoC
// configurations that break the plain version.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sbst"
	"repro/internal/soc"
)

func main() {
	// The routine under test: the hazard-detection-unit self-test. Its
	// signature folds pipeline stall counters, so it is maximally
	// sensitive to timing.
	mkRoutine := func(coreID int) *sbst.Routine {
		r, err := sbst.NewRoutineByName("hdcu", sbst.RoutineOptions{
			DataBase: core.DataWindow(coreID),
			CoreID:   coreID,
		})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	// Three SoC configurations: different start phases and code positions,
	// the "initial SoC configuration" the paper says an in-field test
	// cannot predict.
	type config struct {
		delays [soc.NumCores]int
		bases  [soc.NumCores]uint32
	}
	configs := []config{
		{[3]int{0, 0, 0}, soc.CodePositions},
		{[3]int{0, 11, 23}, [3]uint32{soc.CodeMid, soc.CodeLow, soc.CodeHigh}},
		{[3]int{7, 0, 13}, [3]uint32{soc.CodeHigh, soc.CodeMid, soc.CodeLow}},
	}

	run := func(strategy core.Strategy, cached bool) []uint32 {
		var sigs []uint32
		for _, c := range configs {
			cfg := core.SoCConfig(cached)
			var jobs [soc.NumCores]*core.CoreJob
			for id := 0; id < soc.NumCores; id++ {
				cfg.Cores[id].StartDelay = c.delays[id]
				jobs[id] = &core.CoreJob{
					Routine:  mkRoutine(id),
					Strategy: strategy,
					CodeBase: c.bases[id],
				}
			}
			results, _, err := core.RunJobs(cfg, jobs, 5_000_000)
			if err != nil {
				log.Fatal(err)
			}
			if !results[0].OK {
				log.Fatalf("core A failed: %+v", results[0])
			}
			sigs = append(sigs, results[0].Signature)
		}
		return sigs
	}

	fmt.Println("plain in-place execution (no caches), core A signatures per configuration:")
	for i, sig := range run(core.Plain{}, false) {
		fmt.Printf("  config %d: %08x\n", i, sig)
	}
	fmt.Println("-> the signatures disagree: no golden value exists, the test cannot ship.")
	fmt.Println()
	fmt.Println("cache-based strategy (invalidate + loading loop + execution loop):")
	for i, sig := range run(core.CacheBased{WriteAllocate: true}, true) {
		fmt.Printf("  config %d: %08x\n", i, sig)
	}
	fmt.Println("-> one stable signature: store it as the golden reference and test in field.")
}
