// Package runtime provides the baseline launch policies of the paper's
// evaluation: the flat (non-DP) execution and the static-THRESHOLD
// dynamic parallelism variants (Baseline-DP and the Offline-Search
// sweep are both Threshold policies with different T values).
//
// The SPAWN controller lives in internal/core (package spawn); the DTBL
// comparator in internal/dtbl. All satisfy kernel.Policy.
package runtime

import (
	"fmt"

	"spawnsim/internal/sim/kernel"
)

// API-call cost model (cycles the calling warp stays busy).
const (
	// AcceptCycles is charged when a device launch API call succeeds.
	AcceptCycles = 40
	// DeclineCycles is charged for the THRESHOLD comparison on the
	// serialize path of a static-threshold application.
	DeclineCycles = 4
)

// Flat never launches children: every parent thread performs its own
// work in a loop. This is the paper's non-DP baseline; launch sites cost
// nothing because flat code contains none.
type Flat struct{ kernel.BasePolicy }

// Name implements kernel.Policy.
func (Flat) Name() string { return "flat" }

// Decide implements kernel.Policy.
func (Flat) Decide(*kernel.LaunchSite) kernel.Decision {
	return kernel.Decision{Action: kernel.Serialize, APICycles: 0}
}

// Threshold launches a child kernel iff the candidate's workload exceeds
// T (the application-level THRESHOLD of Figure 3). Baseline-DP uses the
// benchmark's default T; Offline-Search sweeps T offline and keeps the
// best-performing value.
type Threshold struct {
	kernel.BasePolicy
	T int
}

// Name implements kernel.Policy.
func (p Threshold) Name() string { return fmt.Sprintf("threshold-%d", p.T) }

// Decide implements kernel.Policy.
func (p Threshold) Decide(site *kernel.LaunchSite) kernel.Decision {
	if site.Candidate.Workload > p.T {
		return kernel.Decision{Action: kernel.LaunchKernel, APICycles: AcceptCycles}
	}
	return kernel.Decision{Action: kernel.Serialize, APICycles: DeclineCycles}
}

var (
	_ kernel.Policy = Flat{}
	_ kernel.Policy = Threshold{}
)
