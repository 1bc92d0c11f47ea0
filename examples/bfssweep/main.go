// bfssweep reproduces one panel of the paper's Figure 5 interactively:
// it sweeps the parent/child workload distribution of a BFS over a
// Graph500 R-MAT graph and prints the speedup curve, then shows where
// SPAWN lands on it without any tuning.
package main

import (
	"fmt"
	"log"

	"spawnsim/internal/harness"
)

func main() {
	const bench = "BFS-graph500"
	fmt.Printf("Sweeping the static THRESHOLD of %s (the Figure 5 experiment)...\n\n", bench)

	sweep, err := (&harness.Pool{}).Fig5(bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sweep.Render())

	best := sweep.Points[0]
	for _, p := range sweep.Points {
		if p.Speedup > best.Speedup {
			best = p
		}
	}
	fmt.Printf("\nBest static distribution: offload %.0f%% (THRESHOLD %.0f) at %.2fx.\n",
		best.Offload*100, best.Threshold, best.Speedup)

	flat, err := harness.Run(harness.Spec{Benchmark: bench, Scheme: harness.SchemeFlat})
	if err != nil {
		log.Fatal(err)
	}
	sp, err := harness.Run(harness.Spec{Benchmark: bench, Scheme: harness.SchemeSpawn})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SPAWN (no tuning): offload %.0f%% at %.2fx — it finds the sweet spot at runtime.\n",
		sp.Result.OffloadedFraction*100,
		float64(flat.Result.Cycles)/float64(sp.Result.Cycles))
}
