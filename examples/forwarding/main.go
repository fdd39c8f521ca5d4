// Forwarding demo: reproduce the paper's Figure 1 — the same dependent
// instruction pair with its forwarding path exercised (isolated execution)
// and broken (multi-core fetch delays) — as pipeline diagrams, and show the
// consequence for fault coverage via the per-path excitation counters.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/soc"
)

func main() {
	fig, err := experiments.Figure1(experiments.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderFigure1(fig))
	fmt.Println()

	// Beyond the two-instruction illustration: run the full forwarding
	// self-test routine both ways and compare which multiplexer paths are
	// excited. Unexcited paths are exactly where stuck-at faults survive.
	pathNames := []string{"RF", "EX-EX(L0)", "EX-EX(L1)", "MEM-EX(L0)", "MEM-EX(L1)", "cascade"}
	use := func(cached bool) [2][2][fault.NumPaths]int64 {
		// The three-core placement of Table II, core A under test.
		cfg, jobs, err := core.PlacedJobs("forwarding", 0, soc.NumCores, soc.CodeLow, 0, cached)
		if err != nil {
			log.Fatal(err)
		}
		_, s, err := core.RunJobs(cfg, jobs, 5_000_000)
		if err != nil {
			log.Fatal(err)
		}
		return s.Cores[0].Core.PathUse
	}

	broken := use(false)
	isolated := use(true)

	fmt.Println("forwarding-path excitation counts of the full routine on core A:")
	fmt.Printf("%-22s %12s %12s\n", "path", "3-core plain", "cache-based")
	for lane := 0; lane < 2; lane++ {
		for op := 0; op < 2; op++ {
			for p := 1; p < fault.NumPaths; p++ {
				if p == fault.PathCascade && lane == 0 {
					continue
				}
				label := fmt.Sprintf("lane%d op%c %s", lane, 'A'+op, pathNames[p])
				fmt.Printf("%-22s %12d %12d\n", label, broken[lane][op][p], isolated[lane][op][p])
			}
		}
	}
	fmt.Println("\npaths with zero excitation in the plain run keep their stuck-at faults undetected;")
	fmt.Println("worse, the set of excited paths changes with the SoC configuration (Table II's min-max).")
}
