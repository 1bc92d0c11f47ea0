package sim

import (
	goruntime "runtime"
	"testing"
	"time"

	"spawnsim/internal/config"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/trace"
)

// deferNPolicy defers each candidate n times before launching.
type deferNPolicy struct {
	kernel.BasePolicy
	n      int
	defers map[*kernel.LaunchCandidate]int
}

func (p *deferNPolicy) Name() string { return "defer-n" }

func (p *deferNPolicy) Decide(site *kernel.LaunchSite) kernel.Decision {
	if p.defers == nil {
		p.defers = map[*kernel.LaunchCandidate]int{}
	}
	if p.defers[site.Candidate] < p.n {
		p.defers[site.Candidate]++
		return kernel.Decision{Action: kernel.Defer, APICycles: 100}
	}
	return kernel.Decision{Action: kernel.LaunchKernel, APICycles: 40}
}

func TestDeferredLaunchesEventuallyComplete(t *testing.T) {
	pol := &deferNPolicy{n: 3}
	res := run(t, pol, dpParent(64, 10, 2, 4))
	if res.ChildKernels != 64 {
		t.Errorf("child kernels = %d, want 64 after deferrals", res.ChildKernels)
	}
	// Each candidate was offered exactly once to the accounting
	// (deferred presentations do not double count offers).
	if res.LaunchOffers != 64 {
		t.Errorf("launch offers = %d, want 64", res.LaunchOffers)
	}
}

func TestDeferDelaysDecision(t *testing.T) {
	// A single warp, single candidate: with a large defer the first
	// launch decision lands later than the defer period.
	pol := &deferNPolicy{n: 1}
	g := New(Options{Config: config.K20m(), Policy: pol, MaxCycles: 10_000_000})
	g.LaunchHost(nestedParent(8)) // small: one warp of parents
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LaunchCycles) == 0 {
		t.Fatal("no launches")
	}
	if res.LaunchCycles[0] < 100 {
		t.Errorf("first launch at %d, want >= defer period", res.LaunchCycles[0])
	}
}

func TestPendingLaunchPoolPacesArrivals(t *testing.T) {
	// One warp of 32 launching lanes: the k-th launch decision beyond
	// the pool size must wait for earlier arrivals, so the last decision
	// happens well after the first.
	cfg := config.K20m()
	res := run(t, runtime.Threshold{T: 0}, dpParentLanes(32, 10, 2, 4, 32))
	if len(res.LaunchCycles) != 32 {
		t.Fatalf("launches = %d, want 32", len(res.LaunchCycles))
	}
	first := res.LaunchCycles[0]
	last := res.LaunchCycles[len(res.LaunchCycles)-1]
	if last-first < cfg.LaunchOverheadB {
		t.Errorf("decisions span %d cycles; pool back-pressure should spread them past b=%d",
			last-first, cfg.LaunchOverheadB)
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	g := New(Options{Config: config.K20m(), Policy: runtime.Flat{}, MaxCycles: 10})
	g.LaunchHost(dpParent(256, 50, 3, 8))
	if _, err := g.Run(); err == nil {
		t.Error("expected max-cycles error")
	}
}

func TestQueueLatencyReported(t *testing.T) {
	// Many tiny children behind 32 HWQs: later kernels must wait.
	res := run(t, runtime.Threshold{T: 0}, dpParent(512, 40, 3, 8))
	if res.QueueLatency <= 0 {
		t.Errorf("queue latency = %v, want > 0 with %d kernels", res.QueueLatency, res.ChildKernels)
	}
}

func TestParentKernelYieldsHWQToDescendants(t *testing.T) {
	// A parent whose children hash into the same HWQ as the parent's
	// stream: the parent must yield its slot at sync or the run
	// deadlocks. Covered implicitly by every DP run; assert explicitly
	// with a single-CTA parent (fully suspended quickly).
	res := run(t, runtime.Threshold{T: 0}, dpParent(32, 10, 2, 4))
	if res.ChildKernels != 32 {
		t.Errorf("children = %d, want 32", res.ChildKernels)
	}
}

func TestConcurrentCTAsNeverExceedHardwareLimit(t *testing.T) {
	cfg := config.K20m()
	res := run(t, runtime.Threshold{T: 0}, dpParent(2048, 60, 4, 8),
		func(o *Options) { o.SampleInterval = 500 })
	limit := float64(cfg.MaxConcurrentCTAs())
	for i := range res.ParentCTASeries.Values {
		total := res.ParentCTASeries.Values[i] + res.ChildCTASeries.Values[i]
		if total > limit {
			t.Fatalf("bucket %d: %d concurrent CTAs exceed hardware limit %d",
				i, int(total), int(limit))
		}
	}
}

func TestOffloadAccountingConsistent(t *testing.T) {
	res := run(t, runtime.Threshold{T: 25}, dpParent(256, 50, 3, 8))
	// All per-thread workloads are 50 > 25: everything offloads.
	if res.OffloadedFraction != 1 {
		t.Errorf("offload = %v, want 1", res.OffloadedFraction)
	}
	res = run(t, runtime.Threshold{T: 50}, dpParent(256, 50, 3, 8))
	if res.OffloadedFraction != 0 {
		t.Errorf("offload = %v, want 0", res.OffloadedFraction)
	}
}

func TestUtilizationSeriesBounded(t *testing.T) {
	res := run(t, runtime.Threshold{T: 0}, dpParent(512, 50, 3, 8),
		func(o *Options) { o.SampleInterval = 1000 })
	for i, v := range res.UtilSeries.Values {
		if v < 0 || v > 1 {
			t.Fatalf("utilization[%d] = %v out of [0,1]", i, v)
		}
	}
}

func TestChildOfChildCountsAsChild(t *testing.T) {
	// Nested launches: grandchildren contribute to ChildKernels and to
	// the policy's hooks exactly like first-level children.
	res := run(t, runtime.Threshold{T: 0}, nestedParent(64))
	// 2 parent warps launch 2 children; each child warp launches 1
	// grandchild -> 4 device launches.
	if res.ChildKernels != 4 {
		t.Errorf("device launches = %d, want 4 (2 children + 2 grandchildren)", res.ChildKernels)
	}
}

func TestLaunchOverheadScalesWithPerWarpCount(t *testing.T) {
	// More launches from one warp -> later average arrival (Table II's
	// x term). Compare 4 vs 16 launching lanes in one warp.
	few := run(t, runtime.Threshold{T: 0}, dpParentLanes(32, 10, 2, 4, 4))
	many := run(t, runtime.Threshold{T: 0}, dpParentLanes(32, 10, 2, 4, 16))
	fewSpan := few.LaunchCycles[len(few.LaunchCycles)-1] - few.LaunchCycles[0]
	manySpan := many.LaunchCycles[len(many.LaunchCycles)-1] - many.LaunchCycles[0]
	if manySpan <= fewSpan {
		t.Errorf("decision span with 16 launches (%d) should exceed 4 launches (%d)",
			manySpan, fewSpan)
	}
}

func TestResultSnapshotsMemoryCounters(t *testing.T) {
	def := &kernel.Def{
		Name: "memk", GridCTAs: 2, CTAThreads: 64, RegsPerThread: 16,
		NewProgram: func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
			i := 0
			return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
				if i >= 20 {
					return false
				}
				in.Kind = kernel.InstrMem
				in.Addrs = append(in.Addrs, uint64(cta*4096+warp*1024+i*128))
				i++
				return true
			})
		},
	}
	res := run(t, runtime.Flat{}, def)
	if res.Transactions == 0 {
		t.Error("no memory transactions")
	}
	if res.L1HitRate < 0 || res.L1HitRate > 1 {
		t.Errorf("L1 hit rate %v out of range", res.L1HitRate)
	}
}

// Conservation property: across a spectrum of thresholds, the sum of
// offloaded and serialized work always equals the offered work, and
// every launched kernel eventually completes (liveKernels drains), which
// Run's normal return already certifies.
func TestWorkConservationAcrossThresholds(t *testing.T) {
	for _, thr := range []int{0, 10, 25, 50, 100} {
		res := run(t, runtime.Threshold{T: thr}, dpParent(256, 50, 3, 8))
		if res.LaunchOffers != 256 {
			t.Fatalf("T=%d: offers = %d, want 256", thr, res.LaunchOffers)
		}
		wantOffload := 0.0
		if 50 > thr {
			wantOffload = 1.0
		}
		if res.OffloadedFraction != wantOffload {
			t.Errorf("T=%d: offload = %v, want %v", thr, res.OffloadedFraction, wantOffload)
		}
	}
}

// The GTO/dispatch machinery must be stable under CTA sizes that do not
// divide the warp size evenly.
func TestOddCTASizes(t *testing.T) {
	for _, ctaSize := range []int{48, 96, 160} {
		def := dpParent(250, 20, 2, 4)
		def.CTAThreads = ctaSize
		def.GridCTAs = kernel.GridFor(250, ctaSize)
		res := run(t, runtime.Threshold{T: 0}, def)
		if res.Cycles == 0 {
			t.Errorf("ctaSize=%d: no cycles", ctaSize)
		}
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	ring := trace.New(4096)
	res := run(t, runtime.Threshold{T: 0}, dpParent(64, 10, 2, 4),
		func(o *Options) { o.Sinks = []trace.Sink{ring} })
	c := ring.Counts()
	if c[trace.KernelSubmitted] < res.ChildKernels {
		t.Errorf("submitted events = %d, want >= %d", c[trace.KernelSubmitted], res.ChildKernels)
	}
	if c[trace.KernelCompleted] == 0 || c[trace.CTAPlaced] == 0 {
		t.Errorf("missing lifecycle events: %v", c)
	}
	if c[trace.LaunchAccepted] != res.ChildKernels {
		t.Errorf("accepted events = %d, want %d", c[trace.LaunchAccepted], res.ChildKernels)
	}
	if c[trace.CTASuspended] == 0 {
		t.Errorf("no suspension events despite sync-waiting parents: %v", c)
	}
}

// TestResultDoesNotPinGPU drops a finished GPU while keeping its
// Result: the collector must free the GPU, whose free lists hold every
// kernel, CTA and warp of the run. A Result pointing into the GPU kept
// all of it live for as long as the caller kept the Result.
func TestResultDoesNotPinGPU(t *testing.T) {
	freed := make(chan struct{})
	res := func() *Result {
		g := New(Options{Config: config.K20m(), Policy: runtime.Threshold{T: 0}})
		g.LaunchHost(dpParent(64, 8, 10, 4))
		// The GPU sits in cycles (each SMX points at its config), which
		// a finalizer on it would never break: watch its pointer-free wake
		// mirror instead, which only the GPU references.
		goruntime.SetFinalizer(&g.smxReady[0], func(*kernel.Cycle) { close(freed) })
		res, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	for i := 0; i < 50; i++ {
		goruntime.GC()
		select {
		case <-freed:
			if res.ChildCTAExec.N() == 0 {
				t.Error("Result lost its child CTA execution times")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("GPU still live after 50 collections while its Result (%d cycles) is held", res.Cycles)
}
