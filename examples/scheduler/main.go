// Scheduler demo: partition the boot-time STL across the three cores with
// the decentralized scheduler (after the paper's reference [13]), run it
// with the end-of-test barrier, and compare the makespan against serial
// execution.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/sched"
)

func main() {
	// Two instances of the generic library, each routine iterating its
	// pattern sweep four times (boot tests typically do several passes).
	var tasks []sched.Task
	for i := 0; i < 2; i++ {
		for _, r := range sbst.StandardSTL(mem.SRAMBase + 0x3000*uint32(i+1)) {
			rr := sbst.Repeat(r, 4)
			size, _ := rr.SizeBytes()
			tasks = append(tasks, sched.Task{Routine: rr, EstCycles: int64(size) * 4})
		}
	}

	run := func(nCores int) int64 {
		plan, err := sched.Partition(tasks, nCores)
		if err != nil {
			log.Fatal(err)
		}
		if nCores > 1 {
			fmt.Printf("plan for %d cores:\n", nCores)
			for id := 0; id < nCores; id++ {
				fmt.Printf("  core %c:", rune('A'+id))
				for _, t := range plan.PerCore[id] {
					fmt.Printf(" %s", t.Routine.Name)
				}
				fmt.Println()
			}
		}
		jobs := plan.Jobs(func(int) core.Strategy { return core.Plain{} })
		results, _, err := core.RunJobs(core.SoCConfig(true), jobs, 20_000_000)
		if err != nil {
			log.Fatal(err)
		}
		var makespan int64
		for id := 0; id < nCores; id++ {
			if results[id] == nil || !results[id].OK {
				log.Fatalf("core %d failed", id)
			}
			if results[id].Cycles > makespan {
				makespan = results[id].Cycles
			}
		}
		return makespan
	}

	serial := run(1)
	parallel := run(3)
	fmt.Printf("\nserial boot test:   %7d cycles\n", serial)
	fmt.Printf("parallel boot test: %7d cycles (%.2fx speedup, barrier included)\n",
		parallel, float64(serial)/float64(parallel))
	fmt.Println("\nhigher availability is why the paper wants parallel boot tests —")
	fmt.Println("and parallel execution is exactly what breaks naive self-test determinism.")
}
