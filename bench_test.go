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
	goruntime "runtime"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/dtbl"
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
	op := throughputOp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(op().Cycles), "sim-cycles/op")
	}
}

// steadyStateAllocBudget bounds the allocations of one
// BenchmarkSimulatorThroughput op. The op made 375,574 before the engine
// recycled its kernels, CTAs, warps and programs and 9,334 after, over
// 10,776 child launches: the budget is well under a tenth of the former
// (37,557) and under the latter plus one allocation per launch.
const steadyStateAllocBudget = 15_000

// TestSteadyStateAllocs holds the BenchmarkSimulatorThroughput op to
// steadyStateAllocBudget, so a new allocation per launch, CTA or warp
// fails the tier-1 suite.
func TestSteadyStateAllocs(t *testing.T) {
	op := throughputOp(t)
	if got := testing.AllocsPerRun(1, func() { op() }); got > steadyStateAllocBudget {
		t.Errorf("throughput op made %.0f allocations, budget %d", got, steadyStateAllocBudget)
	}
}

// amrDTBLAllocBudget bounds the bytes one AMR run under DTBL allocates.
// The run allocated 29.6 MB while every child warp's serial fallback
// built its own runner, idle warps kept their launch buffers, and the
// GMU queues, the kernel free list and the launch and CTA-time records
// grew by copying; it allocates 10.9 MB now, 9.3 MB of it the peak
// state of the run. In a process already holding as much live heap as
// that peak state, as a benchmark pass with all its inputs built does,
// about 15 MB starts a garbage collection late in the run, at the peak,
// in some runs and not in others.
const amrDTBLAllocBudget = 13 << 20

// TestAMRDTBLAllocBytes holds one AMR run under DTBL, the largest
// simulated state of the Table I runs, to amrDTBLAllocBudget.
func TestAMRDTBLAllocBytes(t *testing.T) {
	bm, err := workloads.ByName("AMR")
	if err != nil {
		t.Fatal(err)
	}
	app := bm.Make()
	def, err := workloads.ParentDef(app)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.NewChecked(sim.Options{Config: config.K20m(), Policy: dtbl.New(app.DefaultThreshold)})
	if err != nil {
		t.Fatal(err)
	}
	g.LaunchHost(def)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > amrDTBLAllocBudget {
		t.Errorf("AMR under DTBL allocated %.1f MB, budget %.1f MB", float64(got)/(1<<20), float64(amrDTBLAllocBudget)/(1<<20))
	}
}

// throughputOp builds BFS-graph500's app and parent kernel and returns
// the throughput op: a fresh Threshold policy and simulated GPU running
// them to completion.
func throughputOp(tb testing.TB) func() *sim.Result {
	bm, err := workloads.ByName("BFS-graph500")
	if err != nil {
		tb.Fatal(err)
	}
	app := bm.Make()
	def, err := workloads.ParentDef(app)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := config.K20m()
	return func() *sim.Result {
		g, err := sim.NewChecked(sim.Options{Config: cfg, Policy: runtime.Threshold{T: app.DefaultThreshold}})
		if err != nil {
			tb.Fatal(err)
		}
		g.LaunchHost(def)
		res, err := g.Run()
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
}
