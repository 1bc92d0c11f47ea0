// Benchmark harness: one sub-benchmark per table and figure of the
// paper's evaluation, taken from the same experiment table the
// experiments command runs (DESIGN.md §3 maps each to its experiment).
// Every iteration regenerates the full experiment, so run with
//
//	go test -bench=. -benchmem -benchtime=1x -run='^$' .
//
// unless you want the adaptive runner to repeat multi-second sweeps.
// With -benchtime=1x this is a panic/hang smoke; host performance is
// measured by the bench/ module.
//
// Multi-run experiments go through the parallel sweep engine at its
// default width (GOMAXPROCS workers), so these numbers measure the
// harness as shipped; outputs are byte-identical at any width.
package spawnsim_test

import (
	"io"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/harness"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim"
	"spawnsim/internal/workloads"
)

// BenchmarkExperiments runs every experiment of the evaluation index,
// one sub-benchmark per experiments -exp id, and writes its CSVs to
// io.Discard. Figures 15-18 share one comparison batch.
func BenchmarkExperiments(b *testing.B) {
	pool := &harness.Pool{}
	var memo harness.Memo
	for _, e := range harness.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := e.Run(pool, &memo, "")
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range out.CSVs {
					if err := c.Write(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// cycles per wall second) on one mid-size Baseline-DP run. The inputs,
// app and parent kernel are built once, outside the timer; each
// iteration gets a fresh policy and simulated GPU.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bm, err := workloads.ByName("BFS-graph500")
	if err != nil {
		b.Fatal(err)
	}
	app := bm.Make()
	if err := app.Normalize(); err != nil {
		b.Fatal(err)
	}
	def, err := workloads.ParentDef(app)
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.K20m()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := sim.NewChecked(sim.Options{Config: cfg, Policy: runtime.Threshold{T: app.DefaultThreshold}})
		if err != nil {
			b.Fatal(err)
		}
		g.LaunchHost(def)
		res, err := g.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "sim-cycles/op")
	}
}
