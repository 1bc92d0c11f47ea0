package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"spawnsim/internal/config"
	"spawnsim/internal/faults"
	"spawnsim/internal/metrics"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/trace"
)

// foreverProgram issues ALU instructions without ever retiring.
func foreverProgram(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
	return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
		in.Kind = kernel.InstrALU
		in.Lat = 1
		return true
	})
}

// runAborting starts the def under Flat and returns the partial result
// and the abort error, failing the test if the run unexpectedly
// completes.
func runAborting(t *testing.T, def *kernel.Def, mut func(*Options)) (*Result, *AbortError) {
	t.Helper()
	o := Options{Config: config.K20m(), Policy: runtime.Flat{}}
	if mut != nil {
		mut(&o)
	}
	g := New(o)
	g.LaunchHost(def)
	res, err := g.Run()
	if err == nil {
		t.Fatal("run completed, want abort")
	}
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("error %v (%T), want *AbortError", err, err)
	}
	return res, abort
}

func TestMaxCyclesAbortIsStructured(t *testing.T) {
	def := &kernel.Def{
		Name: "forever", GridCTAs: 1, CTAThreads: 32, RegsPerThread: 16,
		NewProgram: foreverProgram,
	}
	res, abort := runAborting(t, def, func(o *Options) { o.MaxCycles = 10_000 })
	if abort.Kind != AbortMaxCycles {
		t.Errorf("abort kind = %v, want max-cycles", abort.Kind)
	}
	if abort.LiveKernels != 1 {
		t.Errorf("live kernels = %d, want 1", abort.LiveKernels)
	}
	if res == nil || res.Cycles < 10_000 {
		t.Errorf("partial result = %+v, want cycles >= 10000", res)
	}
}

func TestDeadlockAbortIsStructured(t *testing.T) {
	// A 4096-thread CTA can never fit on a 2048-thread SMX: the kernel
	// stays dispatchable forever with no event pending.
	def := &kernel.Def{
		Name: "unplaceable", GridCTAs: 1, CTAThreads: 4096, RegsPerThread: 1,
		NewProgram: foreverProgram,
	}
	res, abort := runAborting(t, def, nil)
	if abort.Kind != AbortDeadlock {
		t.Errorf("abort kind = %v, want deadlock", abort.Kind)
	}
	if abort.Detail == "" {
		t.Error("deadlock abort should carry queue-depth detail")
	}
	if res == nil {
		t.Error("deadlock abort should return a partial result")
	}
}

func TestDeadlineAbortClosesValidPerfetto(t *testing.T) {
	def := &kernel.Def{
		Name: "forever", GridCTAs: 4, CTAThreads: 128, RegsPerThread: 16,
		NewProgram: foreverProgram,
	}
	var buf bytes.Buffer
	cfg := config.K20m()
	sink := trace.NewPerfetto(&buf, cfg.NumSMX)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, abort := runAborting(t, def, func(o *Options) {
		o.Context = ctx
		o.Sinks = []trace.Sink{sink}
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline abort took %v, want well under 5s", elapsed)
	}
	if abort.Kind != AbortDeadline {
		t.Errorf("abort kind = %v, want deadline", abort.Kind)
	}
	if !errors.Is(abort, context.DeadlineExceeded) {
		t.Error("deadline abort should unwrap to context.DeadlineExceeded")
	}
	if res == nil || res.Cycles == 0 {
		t.Error("deadline abort should return progress made so far")
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("closing Perfetto sink: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("aborted run produced invalid Perfetto JSON")
	}
}

func TestContextCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	def := &kernel.Def{
		Name: "forever", GridCTAs: 1, CTAThreads: 32, RegsPerThread: 16,
		NewProgram: foreverProgram,
	}
	res, abort := runAborting(t, def, func(o *Options) { o.Context = ctx })
	if abort.Kind != AbortCanceled {
		t.Errorf("abort kind = %v, want canceled", abort.Kind)
	}
	if !errors.Is(abort, context.Canceled) {
		t.Error("cancel abort should unwrap to context.Canceled")
	}
	if res == nil {
		t.Error("cancel abort should return a partial result")
	}
}

func TestHeartbeatAndMetricsSurviveAbort(t *testing.T) {
	def := &kernel.Def{
		Name: "forever", GridCTAs: 1, CTAThreads: 32, RegsPerThread: 16,
		NewProgram: foreverProgram,
	}
	reg := metrics.NewRegistry()
	beats := 0
	res, _ := runAborting(t, def, func(o *Options) {
		o.MaxCycles = 50_000
		o.Metrics = reg
		o.Heartbeat = func(Progress) { beats++ }
		o.HeartbeatEvery = 10_000
	})
	if beats == 0 {
		t.Error("heartbeat never fired before the abort")
	}
	snap := reg.Snapshot(uint64(res.Cycles))
	if len(snap.Metrics) == 0 {
		t.Error("no metrics snapshot after abort")
	}
}

func TestInvariantCheckingDoesNotChangeTiming(t *testing.T) {
	plain := run(t, runtime.Threshold{T: 0}, dpParent(128, 50, 3, 8))
	g := New(Options{Config: config.K20m(), Policy: runtime.Threshold{T: 0}, MaxCycles: 50_000_000, CheckInvariants: true})
	g.invEvery = 512
	g.LaunchHost(dpParent(128, 50, 3, 8))
	audited, err := g.Run()
	if err != nil {
		t.Fatalf("audited Run() error: %v", err)
	}
	if plain.Cycles != audited.Cycles {
		t.Errorf("auditing changed timing: %d vs %d cycles", plain.Cycles, audited.Cycles)
	}
}

func TestNewCheckedRejectsInvalidOptions(t *testing.T) {
	bad := config.K20m()
	bad.NumSMX = 0
	if _, err := NewChecked(Options{Config: bad, Policy: runtime.Flat{}}); err == nil {
		t.Error("NewChecked accepted NumSMX = 0")
	}
	if _, err := NewChecked(Options{Config: config.K20m()}); err == nil {
		t.Error("NewChecked accepted a nil policy")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New should panic where NewChecked errors")
			}
		}()
		New(Options{Config: bad, Policy: runtime.Flat{}})
	}()
}

// TestInvalidChildDefPanicsWithInvariant holds device launches to the
// contract LaunchHost enforces: a child Def that fails Def.Validate is
// a programming error reported as a *kernel.InvariantError panic, not a
// raw nil dereference (nil NewProgram) or a false deadlock abort
// (zero GridCTAs).
func TestInvalidChildDefPanicsWithInvariant(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*kernel.Def)
	}{
		{"nil NewProgram", func(d *kernel.Def) { d.NewProgram = nil }},
		{"zero GridCTAs", func(d *kernel.Def) { d.GridCTAs = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			child := childDef(32, 2)
			tc.mutate(child)
			parent := dpParent(64, 32, 2, 4)
			parent.NewProgram = func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
				launched := false
				return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
					if launched {
						return false
					}
					launched = true
					in.Kind = kernel.InstrLaunch
					in.Candidates = append(in.Candidates, launchOf(0, 32, child))
					return true
				})
			}
			g := New(Options{Config: config.K20m(), Policy: runtime.Threshold{T: 0}})
			g.LaunchHost(parent)
			var got interface{}
			func() {
				defer func() { got = recover() }()
				_, _ = g.Run()
			}()
			if _, ok := got.(*kernel.InvariantError); !ok {
				t.Fatalf("Run panicked with %v (%T), want a *kernel.InvariantError", got, got)
			}
		})
	}
}

func TestChaosRunIsDeterministic(t *testing.T) {
	chaosRun := func() (*Result, uint64) {
		inj, err := faults.New(faults.Mild(99))
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, runtime.Threshold{T: 0}, dpParent(256, 50, 3, 8), func(o *Options) {
			o.Faults = inj
			o.CheckInvariants = true
		})
		return res, inj.TotalInjected()
	}
	r1, n1 := chaosRun()
	r2, n2 := chaosRun()
	if r1.Cycles != r2.Cycles || n1 != n2 {
		t.Errorf("identical plan diverged: %d/%d cycles, %d/%d faults", r1.Cycles, r2.Cycles, n1, n2)
	}
	if n1 == 0 {
		t.Error("mild plan injected nothing")
	}
	clean := run(t, runtime.Threshold{T: 0}, dpParent(256, 50, 3, 8))
	if clean.Cycles == r1.Cycles {
		t.Log("chaos run matched clean run exactly (possible but unexpected)")
	}
}

func TestFaultEventsReachTrace(t *testing.T) {
	inj, err := faults.New(faults.Mild(5))
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.New(100_000)
	run(t, runtime.Threshold{T: 0}, dpParent(256, 50, 3, 8), func(o *Options) {
		o.Faults = inj
		o.Sinks = []trace.Sink{ring}
	})
	if inj.TotalInjected() == 0 {
		t.Skip("seed 5 injected nothing on this workload")
	}
	if ring.Counts()[trace.FaultInjected] == 0 {
		t.Error("faults injected but no FaultInjected trace events recorded")
	}
}

func TestStallWindowsDoNotFalseDeadlock(t *testing.T) {
	// Heavy windowed stalls quiesce the machine with work still queued;
	// the injector's epoch boundary must wake the loop, not the deadlock
	// detector.
	inj, err := faults.New(faults.Plan{
		Seed:         3,
		EpochCycles:  256,
		HWQStallProb: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, runtime.Flat{}, &kernel.Def{
		Name: "k", GridCTAs: 4, CTAThreads: 128, RegsPerThread: 16,
		NewProgram: aluProgram(100, 2),
	}, func(o *Options) { o.Faults = inj })
	if res.Cycles == 0 {
		t.Fatal("no progress under stall windows")
	}
}
