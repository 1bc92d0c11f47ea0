// Benchmark harness: one sub-benchmark per table and figure of the
// paper's evaluation, taken from the same experiment table the
// experiments command runs (DESIGN.md §3 maps each to its experiment).
// Every iteration regenerates the full experiment, replaying from the
// run cache what an earlier iteration or experiment simulated, so run
// with
//
//	go test -bench=. -benchmem -benchtime=1x -run='^$' .
//
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
	spawn "spawnsim/internal/core"
	"spawnsim/internal/dtbl"
	"spawnsim/internal/harness"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/store"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

// BenchmarkExperiments runs every experiment of the evaluation index,
// one sub-benchmark per experiments -exp id, and writes its CSVs to
// io.Discard. The sub-benchmarks share one pool with a memory run
// cache, as one experiments -all invocation does: a spec an earlier
// experiment simulated (Figure 5's sweep points, the Figures 15-18
// batch) replays from it.
func BenchmarkExperiments(b *testing.B) {
	pool := &harness.Pool{Store: store.Memory()}
	for _, e := range harness.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := e.Run(pool, "")
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

// BenchmarkObservedThroughput is the BenchmarkSimulatorThroughput op
// with every observer attached, as spawnsim -metrics-out -trace-out
// runs it with spawnreport's profiler: a metrics registry, a JSONL
// trace written to io.Discard and the cycle-attribution profiler. Its
// gap to BenchmarkSimulatorThroughput is the cost of observing a run.
func BenchmarkObservedThroughput(b *testing.B) {
	app, def := throughputApp(b)
	cfg := config.K20m()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := trace.NewJSONL(io.Discard)
		g, err := sim.NewChecked(sim.Options{
			Config:  cfg,
			Policy:  runtime.Threshold{T: app.DefaultThreshold},
			Metrics: metrics.NewRegistry(),
			Sinks:   []trace.Sink{sink},
			Profile: profile.New(cfg.NumSMX, profile.Options{}),
		})
		if err != nil {
			b.Fatal(err)
		}
		g.LaunchHost(def)
		res, err := g.Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "sim-cycles/op")
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

// TestAMRAllocBytes holds the bytes one AMR run allocates, the largest
// simulated state of the Table I runs, to a budget per launch policy.
// A run allocating much more than its peak state makes the benchmark's
// peak_live_heap_mb depend on whether a garbage collection lands at that
// peak: in a process already holding as much live heap as the peak
// state, as a benchmark pass with all its inputs built does, about 15 MB
// starts one late in the run in some runs and not in others.
//
// Every budget is its policy's allocation plus a fifth, rounded up to a
// whole MB: Flat 0.42 MB, Threshold 8.98, DTBL 6.61 and SPAWN 1.56.
// Threshold and DTBL allocated 13.2 and 10.2 MB while every suspended
// CTA kept its warps and programs and a device kernel took 144 bytes.
// Parent warps walk their nested sub-items instead of listing them;
// listing them again adds 13 MB under Flat and 8 MB under SPAWN.
func TestAMRAllocBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy func(app *workloads.App) kernel.Policy
		budget uint64
	}{
		{"Flat", func(*workloads.App) kernel.Policy { return runtime.Flat{} }, 1 << 20},
		{"Threshold", func(app *workloads.App) kernel.Policy { return runtime.Threshold{T: app.DefaultThreshold} }, 11 << 20},
		{"DTBL", func(app *workloads.App) kernel.Policy { return dtbl.New(app.DefaultThreshold) }, 8 << 20},
		{"SPAWN", func(*workloads.App) kernel.Policy { return spawn.New(config.K20m()) }, 2 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bm, err := workloads.ByName("AMR")
			if err != nil {
				t.Fatal(err)
			}
			app := bm.Make()
			def, err := workloads.ParentDef(app)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sim.NewChecked(sim.Options{Config: config.K20m(), Policy: tc.policy(app)})
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
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("AMR under %s allocated %.2f MB", tc.name, float64(got)/(1<<20))
			if got > tc.budget {
				t.Errorf("AMR under %s allocated %.1f MB, budget %.1f MB", tc.name, float64(got)/(1<<20), float64(tc.budget)/(1<<20))
			}
		})
	}
}

// throughputOp builds BFS-graph500's app and parent kernel and returns
// the throughput op: a fresh Threshold policy and simulated GPU running
// them to completion.
func throughputOp(tb testing.TB) func() *sim.Result {
	app, def := throughputApp(tb)
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

// throughputApp builds the throughput op's BFS-graph500 app and parent
// kernel.
func throughputApp(tb testing.TB) (*workloads.App, *kernel.Def) {
	bm, err := workloads.ByName("BFS-graph500")
	if err != nil {
		tb.Fatal(err)
	}
	app := bm.Make()
	def, err := workloads.ParentDef(app)
	if err != nil {
		tb.Fatal(err)
	}
	return app, def
}
