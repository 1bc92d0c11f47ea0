package harness

import (
	"context"
	"errors"

	"spawnsim/internal/sim"
)

// This file is the harness's single error-classification point: what is
// transient (worth a retry under a derived fault seed), what is
// permanent, and how a failure maps to a process exit code. Keeping the
// taxonomy in one place is what lets the retry loop, the quarantine
// path, and the CLIs agree on what a failure means.

// transientErr reports whether a failed run may succeed on another
// attempt. Only fault-injected runs are transient — a deterministic
// simulator fails identically every time without chaos — and
// caller-initiated aborts (cancellation, an expired caller context) are
// always permanent.
func transientErr(ctx context.Context, spec *Spec, err error) bool {
	if spec.FaultPlan == nil || spec.FaultPlan.Zero() {
		return false
	}
	if ctx.Err() != nil {
		// The run's context is gone; no attempt can run to completion.
		return false
	}
	var abort *sim.AbortError
	if errors.As(err, &abort) {
		switch abort.Kind {
		case sim.AbortCanceled:
			return false
		case sim.AbortDeadline:
			// Spec.Deadline is a per-attempt budget: runOnce derives a
			// fresh context.WithTimeout from the caller's context for
			// each attempt, so an attempt that ran out of time under an
			// unlucky fault schedule may finish under the next derived
			// seed; the ctx checked above is the caller's, which the
			// attempt's timeout never cancels. Without a per-attempt
			// deadline the abort came from the caller's own deadline —
			// their total budget — which no retry can recover.
			return spec.Deadline > 0
		case sim.AbortMaxCycles, sim.AbortDeadlock, sim.AbortStalled, sim.AbortInvariant:
			return true
		default:
			return true
		}
	}
	// Recovered panics under chaos are treated as transient.
	return true
}

// CLI exit codes for failed runs. Cancellation follows the shell's
// 128+SIGINT convention; timeouts and stalls use coreutils timeout(1)'s
// 124 so sweep scripts can tell "took too long" from "crashed".
const (
	ExitFailure   = 1   // generic failure
	ExitInvariant = 3   // simulator conservation-law violation
	ExitTimeout   = 124 // deadline elapsed or stall watchdog fired
	ExitCanceled  = 130 // interrupted (Ctrl-C / SIGTERM)
)

// ExitCode maps a run error to the process exit code distinguishing the
// abort kinds above; nil maps to 0.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	var abort *sim.AbortError
	if errors.As(err, &abort) {
		switch abort.Kind {
		case sim.AbortCanceled:
			return ExitCanceled
		case sim.AbortDeadline, sim.AbortStalled:
			return ExitTimeout
		case sim.AbortInvariant:
			return ExitInvariant
		case sim.AbortMaxCycles, sim.AbortDeadlock:
			return ExitFailure
		default:
			return ExitFailure
		}
	}
	if errors.Is(err, context.Canceled) {
		return ExitCanceled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ExitTimeout
	}
	return ExitFailure
}

// AbortKind extracts the abort classification from a run error, when it
// has one (for CLIs reporting the kind on stderr).
func AbortKind(err error) (sim.AbortKind, bool) {
	var abort *sim.AbortError
	if errors.As(err, &abort) {
		return abort.Kind, true
	}
	return 0, false
}
