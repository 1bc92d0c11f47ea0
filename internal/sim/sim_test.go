package sim

import (
	"testing"

	"spawnsim/internal/config"
	spawn "spawnsim/internal/core"
	"spawnsim/internal/dtbl"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim/kernel"
)

// aluProgram emits n ALU instructions of latency lat, then exits.
func aluProgram(n int, lat uint32) func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
	return func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
		i := 0
		return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
			if i >= n {
				return false
			}
			i++
			in.Kind = kernel.InstrALU
			in.Lat = lat
			return true
		})
	}
}

// childDef builds a child kernel covering `work` items with 32-thread CTAs,
// where each child thread runs `iters` ALU ops.
func childDef(work, iters int) *kernel.Def {
	return &kernel.Def{
		Name:          "child",
		GridCTAs:      kernel.GridFor(work, 32),
		CTAThreads:    32,
		Threads:       work,
		RegsPerThread: 16,
		NewProgram:    aluProgram(iters, 4),
	}
}

// launchOf proposes a child launch of d with d's own grid and thread
// count as the launch configuration.
func launchOf(lane, workload int, d *kernel.Def) kernel.LaunchCandidate {
	return kernel.LaunchCandidate{Lane: lane, Workload: workload, Def: d, GridCTAs: d.GridCTAs, Threads: d.Threads}
}

// dpProgram builds the warp program of a DP parent: a launch site where
// `lanesPerWarp` lanes propose children, a serial loop for declined
// lanes, then DeviceSynchronize.
func dpProgram(perThread, childIters int, iterLat uint32, lanesPerWarp int) func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
	return func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
		type state struct {
			phase     int
			remaining int
		}
		s := &state{}
		return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
			switch s.phase {
			case 0:
				in.Kind = kernel.InstrLaunch
				for lane := 0; lane < lanesPerWarp; lane++ {
					in.Candidates = append(in.Candidates, launchOf(lane, perThread, childDef(perThread, childIters)))
				}
				s.phase = 1
				return true
			case 1:
				// Count declined lanes (feedback from the engine).
				declined := 0
				for _, ok := range x.Accepted {
					if !ok {
						declined++
					}
				}
				if declined > 0 {
					s.remaining = perThread
				}
				s.phase = 2
				fallthrough
			case 2:
				if s.remaining > 0 {
					s.remaining--
					in.Kind = kernel.InstrALU
					in.Lat = iterLat
					return true
				}
				s.phase = 3
				in.Kind = kernel.InstrSync
				return true
			default:
				return false
			}
		})
	}
}

// dpParent builds a parent kernel whose threads each carry `perThread`
// work items; at the launch site every lane proposes a child, and
// declined lanes are processed serially (one ALU of latency `iterLat`
// per item, max across declined lanes in the warp).
func dpParent(parents, perThread, childIters int, iterLat uint32) *kernel.Def {
	return &kernel.Def{
		Name:          "parent",
		GridCTAs:      kernel.GridFor(parents, 64),
		CTAThreads:    64,
		Threads:       parents,
		RegsPerThread: 24,
		NewProgram:    dpProgram(perThread, childIters, iterLat, 32),
	}
}

// dpParentLanes is dpParent with only `lanesPerWarp` launching lanes.
func dpParentLanes(parents, perThread, childIters int, iterLat uint32, lanesPerWarp int) *kernel.Def {
	d := dpParent(parents, perThread, childIters, iterLat)
	d.NewProgram = dpProgram(perThread, childIters, iterLat, lanesPerWarp)
	return d
}

func run(t *testing.T, pol kernel.Policy, def *kernel.Def, opts ...func(*Options)) *Result {
	t.Helper()
	o := Options{Config: config.K20m(), Policy: pol, MaxCycles: 50_000_000}
	for _, f := range opts {
		f(&o)
	}
	g := New(o)
	g.LaunchHost(def)
	res, err := g.Run()
	if err != nil {
		t.Fatalf("Run() error: %v", err)
	}
	return res
}

func TestSimpleKernelCompletes(t *testing.T) {
	def := &kernel.Def{
		Name: "k", GridCTAs: 4, CTAThreads: 128, RegsPerThread: 16,
		NewProgram: aluProgram(100, 2),
	}
	res := run(t, runtime.Flat{}, def)
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	// 100 ALU of latency 2 per warp, warps interleave: at least 200 cycles.
	if res.Cycles < 200 {
		t.Errorf("cycles = %d, want >= 200", res.Cycles)
	}
	if res.ChildKernels != 0 {
		t.Errorf("child kernels = %d, want 0", res.ChildKernels)
	}
}

func TestMemoryProgramCompletes(t *testing.T) {
	def := &kernel.Def{
		Name: "m", GridCTAs: 2, CTAThreads: 64, RegsPerThread: 16,
		NewProgram: func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
			i := 0
			return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
				if i >= 50 {
					return false
				}
				in.Kind = kernel.InstrMem
				for l := 0; l < 32; l++ {
					in.Addrs = append(in.Addrs, uint64(cta)<<20|uint64(warp)<<14|uint64(i*128+l*4))
				}
				i++
				return true
			})
		},
	}
	res := run(t, runtime.Flat{}, def)
	if res.Transactions == 0 {
		t.Error("no memory transactions recorded")
	}
	if res.L2HitRate < 0 || res.L2HitRate > 1 {
		t.Errorf("L2 hit rate out of range: %v", res.L2HitRate)
	}
}

func TestDispatchMoreCTAsThanFit(t *testing.T) {
	// 64 CTAs of 512 threads: only 4 fit per SMX (2048/512), 52 system-
	// wide, so dispatch must proceed in waves.
	def := &kernel.Def{
		Name: "big", GridCTAs: 64, CTAThreads: 512, RegsPerThread: 16,
		NewProgram: aluProgram(20, 2),
	}
	res := run(t, runtime.Flat{}, def)
	if res.Cycles == 0 {
		t.Fatal("did not complete")
	}
}

func TestFlatNeverLaunches(t *testing.T) {
	res := run(t, runtime.Flat{}, dpParent(256, 50, 3, 8))
	if res.ChildKernels != 0 || res.OffloadedFraction != 0 {
		t.Errorf("flat launched %d kernels, offload %.2f", res.ChildKernels, res.OffloadedFraction)
	}
	if res.LaunchOffers == 0 {
		t.Error("launch sites should still be visited")
	}
}

func TestThresholdLaunchesAll(t *testing.T) {
	res := run(t, runtime.Threshold{T: 0}, dpParent(256, 50, 3, 8))
	if res.ChildKernels != 256 {
		t.Errorf("child kernels = %d, want 256 (one per parent thread)", res.ChildKernels)
	}
	if res.OffloadedFraction != 1 {
		t.Errorf("offload = %v, want 1", res.OffloadedFraction)
	}
}

func TestThresholdBlocksSmallWork(t *testing.T) {
	res := run(t, runtime.Threshold{T: 100}, dpParent(256, 50, 3, 8))
	if res.ChildKernels != 0 {
		t.Errorf("child kernels = %d, want 0 for T above workload", res.ChildKernels)
	}
}

func TestLaunchOverheadDelaysChildren(t *testing.T) {
	cfg := config.K20m()
	resDP := run(t, runtime.Threshold{T: 0}, dpParent(64, 10, 2, 4))
	// A child cannot complete before the minimum launch latency.
	if resDP.Cycles < cfg.LaunchLatency(1) {
		t.Errorf("DP run finished in %d cycles, below the launch overhead %d",
			resDP.Cycles, cfg.LaunchLatency(1))
	}
}

func TestFlatBeatsDPOnTinyBalancedWork(t *testing.T) {
	// Tiny, balanced per-thread work: launch overheads dominate, flat wins.
	flat := run(t, runtime.Flat{}, dpParent(64, 10, 2, 4))
	dp := run(t, runtime.Threshold{T: 0}, dpParent(64, 10, 2, 4))
	if flat.Cycles >= dp.Cycles {
		t.Errorf("flat %d cycles should beat baseline-DP %d on tiny work", flat.Cycles, dp.Cycles)
	}
}

func TestSpawnPolicyRuns(t *testing.T) {
	cfg := config.K20m()
	ctrl := spawn.New(cfg)
	res := run(t, ctrl, dpParent(512, 60, 4, 8))
	if ctrl.Decisions == 0 {
		t.Fatal("controller made no decisions")
	}
	if res.ChildKernels == 0 {
		t.Error("SPAWN cold start should launch at least some children")
	}
	if ctrl.QueueDepth() != 0 {
		t.Errorf("CCQS depth at end = %d, want 0", ctrl.QueueDepth())
	}
}

func TestDTBLBypassesHWQs(t *testing.T) {
	res := run(t, dtbl.New(0), dpParent(256, 50, 3, 8))
	if res.DTBLGroups != 256 {
		t.Errorf("DTBL groups = %d, want 256", res.DTBLGroups)
	}
	if res.ChildKernels != 0 {
		t.Errorf("child kernels = %d, want 0 under DTBL", res.ChildKernels)
	}
}

func TestDTBLFasterThanBaselineOnManySmallChildren(t *testing.T) {
	// Many tiny children: baseline-DP pays per-kernel overhead + HWQ
	// serialization; DTBL pays neither.
	d := run(t, dtbl.New(0), dpParent(512, 40, 2, 4))
	b := run(t, runtime.Threshold{T: 0}, dpParent(512, 40, 2, 4))
	if d.Cycles >= b.Cycles {
		t.Errorf("DTBL %d cycles should beat baseline-DP %d", d.Cycles, b.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	r1 := run(t, runtime.Threshold{T: 20}, dpParent(300, 50, 3, 8))
	r2 := run(t, runtime.Threshold{T: 20}, dpParent(300, 50, 3, 8))
	if r1.Cycles != r2.Cycles || r1.ChildKernels != r2.ChildKernels {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)",
			r1.Cycles, r1.ChildKernels, r2.Cycles, r2.ChildKernels)
	}
}

func TestSeriesSampling(t *testing.T) {
	res := run(t, runtime.Threshold{T: 0}, dpParent(256, 50, 3, 8),
		func(o *Options) { o.SampleInterval = 1000 })
	if res.ParentCTASeries == nil || res.ChildCTASeries == nil || res.UtilSeries == nil {
		t.Fatal("series missing despite SampleInterval")
	}
	if res.ParentCTASeries.Len() == 0 {
		t.Error("empty parent series")
	}
	// Some bucket should show child CTAs executing.
	sawChild := false
	for _, v := range res.ChildCTASeries.Values {
		if v > 0 {
			sawChild = true
			break
		}
	}
	if !sawChild {
		t.Error("child CTA series never rose above zero")
	}
}

func TestOccupancyBounds(t *testing.T) {
	res := run(t, runtime.Threshold{T: 0}, dpParent(512, 50, 3, 8))
	if res.Occupancy <= 0 || res.Occupancy > 1 {
		t.Errorf("occupancy = %v, want in (0,1]", res.Occupancy)
	}
}

func TestChildCTAExecRecorded(t *testing.T) {
	res := run(t, runtime.Threshold{T: 0}, dpParent(128, 50, 3, 8))
	if res.ChildCTAExec.N() == 0 {
		t.Error("no child CTA execution samples")
	}
	if res.QueueLatency < 0 {
		t.Errorf("queue latency = %v", res.QueueLatency)
	}
}

func TestRunWithoutKernelsErrors(t *testing.T) {
	g := New(Options{Config: config.K20m(), Policy: runtime.Flat{}})
	if _, err := g.Run(); err == nil {
		t.Error("Run with no kernels should error")
	}
}

func TestLaunchCyclesRecorded(t *testing.T) {
	res := run(t, runtime.Threshold{T: 0}, dpParent(128, 50, 3, 8))
	if len(res.LaunchCycles) != res.ChildKernels {
		t.Errorf("launch cycles = %d entries, want %d", len(res.LaunchCycles), res.ChildKernels)
	}
	prevMax := kernel.Cycle(0)
	for _, c := range res.LaunchCycles {
		if c > res.Cycles {
			t.Fatalf("launch cycle %d beyond end %d", c, res.Cycles)
		}
		if c > prevMax {
			prevMax = c
		}
	}
}

// nestedParent launches children whose threads launch grandchildren.
func nestedParent(parents int) *kernel.Def {
	grandchild := &kernel.Def{
		Name: "gc", GridCTAs: 1, CTAThreads: 32, Threads: 8, RegsPerThread: 16,
		NewProgram: aluProgram(5, 2),
	}
	child := &kernel.Def{
		Name: "c", GridCTAs: 1, CTAThreads: 32, Threads: 16, RegsPerThread: 16,
		NewProgram: func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
			phase := 0
			return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
				switch phase {
				case 0:
					in.Kind = kernel.InstrLaunch
					in.Candidates = append(in.Candidates, launchOf(0, 8, grandchild))
					phase = 1
					return true
				case 1:
					phase = 2
					in.Kind = kernel.InstrSync
					return true
				default:
					return false
				}
			})
		},
	}
	return &kernel.Def{
		Name: "p", GridCTAs: kernel.GridFor(parents, 32), CTAThreads: 32,
		Threads: parents, RegsPerThread: 16,
		NewProgram: func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
			phase := 0
			return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
				switch phase {
				case 0:
					in.Kind = kernel.InstrLaunch
					in.Candidates = append(in.Candidates, launchOf(0, 16, child))
					phase = 1
					return true
				case 1:
					phase = 2
					in.Kind = kernel.InstrSync
					return true
				default:
					return false
				}
			})
		},
	}
}

func TestNestedLaunchesComplete(t *testing.T) {
	res := run(t, runtime.Threshold{T: 0}, nestedParent(64))
	// 2 warps' worth of parents, each warp proposes 1 candidate; children
	// propose grandchildren.
	if res.ChildKernels < 2 {
		t.Errorf("child kernels = %d, want >= 2 (children + grandchildren)", res.ChildKernels)
	}
}

func TestStreamModesDiffer(t *testing.T) {
	// Few launches per warp (launch pipe is cheap) but long-running
	// children, so execution ordering dominates: per-parent-CTA streams
	// serialize the 8 children of each CTA.
	def := func() *kernel.Def { return dpParentLanes(512, 400, 400, 8, 4) }
	perChild := run(t, runtime.Threshold{T: 0}, def())
	perCTA := run(t, runtime.Threshold{T: 0}, def(),
		func(o *Options) { o.StreamMode = kernel.StreamPerParentCTA })
	// Per-parent-CTA streams serialize children of one CTA: must be slower.
	if perCTA.Cycles <= perChild.Cycles {
		t.Errorf("per-CTA streams (%d) should be slower than per-child (%d)",
			perCTA.Cycles, perChild.Cycles)
	}
}
