package harness

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"spawnsim/internal/sim"
)

// stallGuard is the harness's wall-clock complement to the simulator's
// cycle-progress watchdog (sim.Options.StallWindow). The simulator's
// watchdog sees simulated progress but cannot see wall time; this guard
// sees only wall time: it rides the run's heartbeat stream, and if no
// heartbeat lands for Spec.StallTimeout — the process is wedged below
// the cycle loop, or simulating pathologically slowly — it cancels the
// run and rewraps the resulting cancellation abort as AbortStalled.
type stallGuard struct {
	timeout time.Duration
	timer   *time.Timer
	cancel  context.CancelFunc
	fired   atomic.Bool
}

// armStallGuard activates the guard on one attempt when
// Spec.StallTimeout is set, deriving a cancelable context from the run
// context (so the guard can abort the run) and wrapping the spec's
// heartbeat (so every heartbeat pets the timer). The spec is the
// per-attempt copy, so each retry attempt gets a fresh guard and a
// fresh timeout budget. It returns the context the attempt runs under
// and the guard, which is inert (nil) when the feature is off; callers
// always stop() it.
func armStallGuard(ctx context.Context, spec *Spec) (context.Context, *stallGuard) {
	if spec.StallTimeout <= 0 {
		return ctx, nil
	}
	g := &stallGuard{timeout: spec.StallTimeout}
	ctx, g.cancel = context.WithCancel(ctx)
	//spawnvet:allow purity wall-clock stall guard: the timer only aborts a wedged run, it never feeds results
	g.timer = time.AfterFunc(g.timeout, func() {
		g.fired.Store(true)
		g.cancel()
	})
	// Ride the heartbeat stream: any heartbeat proves the cycle loop is
	// alive, so it resets the wall clock. When the spec has no heartbeat
	// consumer of its own, installing the pet function alone enables the
	// simulator's default heartbeat cadence.
	inner := spec.Heartbeat
	spec.Heartbeat = func(p sim.Progress) {
		g.pet()
		if inner != nil {
			inner(p)
		}
	}
	return ctx, g
}

// pet resets the guard's timer: wall-clock proof of life.
func (g *stallGuard) pet() {
	if g == nil {
		return
	}
	g.timer.Reset(g.timeout)
}

// stop disarms the guard; safe on a nil (inert) guard.
func (g *stallGuard) stop() {
	if g == nil {
		return
	}
	g.timer.Stop()
	g.cancel()
}

// rewrap converts the cancellation abort the guard provoked into an
// AbortStalled, so callers see one stall taxonomy whether the cycle
// watchdog or the wall-clock guard caught it. Errors the guard did not
// cause pass through untouched.
func (g *stallGuard) rewrap(err error) error {
	if g == nil || err == nil || !g.fired.Load() {
		return err
	}
	var abort *sim.AbortError
	if !errors.As(err, &abort) || abort.Kind != sim.AbortCanceled {
		return err
	}
	return &sim.AbortError{
		Kind:        sim.AbortStalled,
		Cycle:       abort.Cycle,
		LiveKernels: abort.LiveKernels,
		Detail: fmt.Sprintf("wall-clock stall guard: no heartbeat for %v (no cycle-accurate snapshot; see Spec.StallWindow for one)",
			g.timeout),
	}
}
