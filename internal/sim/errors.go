package sim

import (
	"fmt"
	"strings"

	"spawnsim/internal/sim/kernel"
)

// InvariantError re-exports the engine's structured invariant-violation
// error (defined in internal/sim/kernel so every layer can construct
// one). Invariant violations detected inline still panic — they are
// programming errors — but panic with a *InvariantError value so the
// harness can recover them into ordinary errors with cycle and
// component context; the Options.CheckInvariants auditor returns them
// without panicking.
type InvariantError = kernel.InvariantError

// AbortKind classifies why a run stopped before completing its kernels.
type AbortKind uint8

const (
	// AbortMaxCycles: the run exceeded Options.MaxCycles.
	AbortMaxCycles AbortKind = iota
	// AbortDeadlock: no kernel can make progress and no event is pending.
	AbortDeadlock
	// AbortCanceled: Options.Context was canceled.
	AbortCanceled
	// AbortDeadline: the deadline of Options.Context elapsed.
	AbortDeadline
	// AbortInvariant: the Options.CheckInvariants auditor found a broken
	// conservation law (the underlying *InvariantError is in Err).
	AbortInvariant
	// AbortStalled: the cycle watchdog saw no forward progress — no
	// issued instruction, placed CTA, launch decision, arrival, or
	// completed kernel — for Options.StallWindow consecutive scheduler
	// steps while the clock kept advancing (a livelock, e.g. a policy
	// deferring forever). The Stall field carries a snapshot of where
	// the machine was stuck.
	AbortStalled
)

func (k AbortKind) String() string {
	switch k {
	case AbortMaxCycles:
		return "max-cycles"
	case AbortDeadlock:
		return "deadlock"
	case AbortCanceled:
		return "canceled"
	case AbortDeadline:
		return "deadline"
	case AbortInvariant:
		return "invariant"
	case AbortStalled:
		return "stalled"
	default:
		return fmt.Sprintf("abort(%d)", uint8(k))
	}
}

// AbortError reports an aborted simulation. Run returns it alongside a
// partial *Result snapshotted at the abort cycle, so callers can still
// inspect progress, flush sinks, and export traces.
type AbortError struct {
	Kind  AbortKind
	Cycle kernel.Cycle
	// LiveKernels is how many kernels were outstanding at the abort.
	LiveKernels int
	// Err is the underlying cause when one exists: the context error for
	// cancellation/deadline aborts, the *InvariantError for invariant
	// aborts. Nil for max-cycles and deadlock aborts.
	Err error
	// Detail carries kind-specific context (queue depths for deadlocks,
	// the configured bound for max-cycles).
	Detail string
	// Stall is the machine snapshot of an AbortStalled abort; it is
	// non-nil exactly when Kind is AbortStalled.
	Stall *StallSnapshot
}

// StallSnapshot records where the machine was stuck when the cycle
// watchdog fired: the quiesced-but-ticking state the stall window
// covered, with every component classified through the same
// busy/idle/stall taxonomy the cycle-attribution profiler uses
// (internal/profile), so a stall report reads like one profiler tick.
type StallSnapshot struct {
	// Window is the configured stall window (in scheduler steps);
	// LastProgress is the last cycle at which the engine made forward
	// progress.
	Window       kernel.Cycle
	LastProgress kernel.Cycle
	// Queue and occupancy state at the abort cycle.
	QueuedKernels int
	PendingCTAs   int
	ActiveWarps   int64
	// Components maps each machine component to its profiler-taxonomy
	// state ("gmu=stall-dispatch", "smx3=idle", ...), in fixed order.
	Components []string
}

func (s *StallSnapshot) String() string {
	return fmt.Sprintf("no progress for %d scheduler steps (last at cycle %d): %d queued kernels, %d pending CTAs, %d active warps; %s",
		s.Window, s.LastProgress, s.QueuedKernels, s.PendingCTAs, s.ActiveWarps,
		strings.Join(s.Components, " "))
}

func (e *AbortError) Error() string {
	msg := fmt.Sprintf("sim: %s abort at cycle %d (%d kernels outstanding)", e.Kind, e.Cycle, e.LiveKernels)
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause so errors.Is(err, context.Canceled)
// and errors.As(err, **InvariantError) work on aborted runs.
func (e *AbortError) Unwrap() error { return e.Err }
