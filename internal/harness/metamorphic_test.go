package harness

import (
	"math"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
)

// TestLaunchPathMetamorphic checks two properties that Table II's
// launch path implies, on Baseline-DP runs, without fixing any
// benchmark's cycle count: more HWQs never raise the mean HWQ queueing
// latency, and a larger base launch latency LaunchOverheadB never
// shortens a run.
func TestLaunchPathMetamorphic(t *testing.T) {
	run := func(t *testing.T, bench string, cfg config.GPU) *Outcome {
		t.Helper()
		out, err := Run(Spec{Benchmark: bench, Scheme: SchemeBaseline, Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, bench := range []string{"MM-small", "Mandel"} {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			prev, prevHWQs := math.Inf(1), 0
			for _, hwqs := range []int{8, 16, 32, 64} {
				cfg := config.K20m()
				cfg.NumHWQs = hwqs
				lat := run(t, bench, cfg).Result.QueueLatency
				if lat > prev {
					t.Errorf("%d HWQs: queue latency %.0f cycles, above %.0f at %d HWQs", hwqs, lat, prev, prevHWQs)
				}
				prev, prevHWQs = lat, hwqs
			}

			var prevCycles, prevB kernel.Cycle
			for _, b := range []kernel.Cycle{20210, 30000, 40000} {
				cfg := config.K20m()
				cfg.LaunchOverheadB = b
				cycles := run(t, bench, cfg).Result.Cycles
				if cycles < prevCycles {
					t.Errorf("LaunchOverheadB %d: %d cycles, fewer than %d at LaunchOverheadB %d", b, cycles, prevCycles, prevB)
				}
				prevCycles, prevB = cycles, b
			}
		})
	}
}
