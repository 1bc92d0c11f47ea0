package sim

import (
	"errors"
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/profile"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim/kernel"
)

// deferForever models a buggy launch policy that never decides: every
// candidate is deferred, so the launching warps livelock — the clock
// advances (each Defer burns APICycles) but no instruction retires, no
// CTA places, no kernel arrives. Exactly the failure mode the
// cycle-progress watchdog exists to catch.
type deferForever struct{ kernel.BasePolicy }

func (deferForever) Name() string { return "defer-forever" }
func (deferForever) Decide(site *kernel.LaunchSite) kernel.Decision {
	return kernel.Decision{Action: kernel.Defer, APICycles: 100}
}

func TestWatchdogAbortsDeferLivelock(t *testing.T) {
	g := New(Options{
		Config:      config.K20m(),
		Policy:      deferForever{},
		MaxCycles:   50_000_000,
		StallWindow: 100_000,
	})
	g.LaunchHost(dpParent(256, 64, 32, 4))
	res, err := g.Run()
	if err == nil {
		t.Fatal("defer-forever run completed; want AbortStalled")
	}
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("error = %v (%T), want *AbortError", err, err)
	}
	if abort.Kind != AbortStalled {
		t.Fatalf("abort kind = %v, want %v", abort.Kind, AbortStalled)
	}
	if abort.Stall == nil {
		t.Fatal("AbortStalled without a StallSnapshot")
	}
	if abort.Stall.Window != 100_000 {
		t.Errorf("snapshot window = %d, want 100000", abort.Stall.Window)
	}
	if abort.Cycle-abort.Stall.LastProgress < 100_000 {
		t.Errorf("abort at cycle %d only %d cycles after last progress (window 100000)",
			abort.Cycle, abort.Cycle-abort.Stall.LastProgress)
	}
	if len(abort.Stall.Components) == 0 {
		t.Error("snapshot has no component states")
	}
	if !strings.Contains(abort.Error(), "no progress for") {
		t.Errorf("abort message %q does not describe the stall", abort.Error())
	}
	if res == nil {
		t.Fatal("no partial result alongside the stall abort")
	}
	// Well before MaxCycles: the watchdog, not the cycle bound, fired.
	if res.Cycles >= 50_000_000 {
		t.Errorf("aborted at cycle %d, at the MaxCycles bound rather than the stall window", res.Cycles)
	}
}

func TestWatchdogQuietOnHealthyRuns(t *testing.T) {
	// A real DP workload spends long stretches quiescent — warps blocked
	// on memory or synchronized on children in flight — which must
	// fast-forward past the window without tripping it.
	armed := func(o *Options) { o.StallWindow = 10_000 }
	base := run(t, runtime.Flat{}, dpParent(256, 64, 32, 4))
	got := run(t, runtime.Flat{}, dpParent(256, 64, 32, 4), armed)
	if got.Cycles != base.Cycles {
		t.Errorf("armed watchdog changed the run: %d cycles vs %d unarmed", got.Cycles, base.Cycles)
	}

	def := &kernel.Def{
		Name: "k", GridCTAs: 8, CTAThreads: 128, RegsPerThread: 16,
		NewProgram: aluProgram(500, 8),
	}
	res := run(t, runtime.Flat{}, def, armed)
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}
}

// TestWatchdogJudgesTicksAfterTheirWork pins what the window counts: a
// tick counts only once its work has run, so the first tick — which
// delivers the host kernel — is progress, and a window of 1 aborts one
// past the first progress-free tick that follows a progress tick. The
// abort cycle is the partial Result's cycle count, and the profiler,
// which booked the tripping tick, still accounts every cycle.
func TestWatchdogJudgesTicksAfterTheirWork(t *testing.T) {
	for _, eng := range []Engine{EngineWheel, EngineStepped} {
		t.Run(eng.String(), func(t *testing.T) {
			cfg := config.K20m()
			prof := profile.New(cfg.NumSMX, profile.Options{})
			g := New(Options{
				Config:      cfg,
				Policy:      runtime.Flat{},
				Engine:      eng,
				MaxCycles:   50_000_000,
				StallWindow: 1,
				Profile:     prof,
			})
			g.LaunchHost(dpParent(256, 64, 32, 4))
			res, err := g.Run()
			var abort *AbortError
			if !errors.As(err, &abort) || abort.Kind != AbortStalled || abort.Stall == nil {
				t.Fatalf("error = %v, want an AbortStalled with a snapshot", err)
			}
			if abort.Cycle < abort.Stall.LastProgress+2 {
				t.Errorf("abort at cycle %d, last progress at cycle %d: want a progress-free tick between them",
					abort.Cycle, abort.Stall.LastProgress)
			}
			if res == nil || res.Cycles != abort.Cycle {
				t.Fatalf("partial result %v, want one of %d cycles", res, abort.Cycle)
			}
			rep := prof.Report()
			if rep.Ticked == 0 || rep.Ticked+rep.Skipped != uint64(res.Cycles) {
				t.Errorf("profiler accounts ticked %d + skipped %d, want %d cycles with at least one tick",
					rep.Ticked, rep.Skipped, res.Cycles)
			}
		})
	}
}
