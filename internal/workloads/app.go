// Package workloads implements the paper's Table I applications on top
// of the simulator's abstract instruction model. Each application is an
// App: a population of parent threads with a per-thread workload
// distribution and a per-work-item operation mix (ALU latency plus
// loads/stores with realistic addresses into the input's virtual
// layout). The package turns an App into parent/child kernel.Defs whose
// programs contain the Figure 3 structure — a per-thread launch site,
// the serial fallback loop, and DeviceSynchronize — so every launch
// policy (Flat, Threshold, SPAWN, DTBL) runs the exact same code.
package workloads

import (
	"fmt"

	"spawnsim/internal/sim/kernel"
)

// ItemOps is the operation mix of one work item.
type ItemOps struct {
	// Inner returns the inner-loop trip count for item j of parent p
	// (e.g. NNZ[row] multiply-adds per output element in MM). Nil means 1.
	Inner func(p, j int) int
	// ALULat is the ALU issue latency charged per inner iteration.
	ALULat int
	// Loads/Stores are memory slots per inner iteration; Addr supplies
	// the byte address for (p, j, iteration, slot) with load slots
	// [0,Loads) and store slots [Loads, Loads+Stores).
	Loads  int
	Stores int
	Addr   func(p, j, it, slot int) uint64
	// FinalStores are store slots emitted once per item after the inner
	// loop (e.g. writing out[p][j]); FinalAddr supplies their addresses.
	FinalStores int
	FinalAddr   func(p, j, slot int) uint64
}

func (o *ItemOps) inner(p, j int) int {
	if o.Inner == nil {
		return 1
	}
	n := o.Inner(p, j)
	if n < 1 {
		return 1
	}
	return n
}

// Nest describes one deeper dynamic-parallelism level (AMR's nested
// launches): work item j of parent p may itself spawn SubItems(p, j)
// items executed with Ops. Encoded parent ids pEnc = Encode(p, j) key
// the nested ops' address functions.
type Nest struct {
	SubItems func(p, j int) int
	CTASize  int
	Ops      ItemOps
	Encode   func(p, j int) int
}

// App is one dynamic-parallelism application instance (application +
// input dataset).
//
// The unit of offloadable work is an element (a vertex, read, tuple,
// row, region, cell). Each parent thread processes a section of Section
// consecutive elements (Section II-B: "all the reads are divided into
// sections; each parent thread handles one section"), reaching one
// launch site per element — which is what spreads launch decisions over
// the run and lets a runtime controller learn.
type App struct {
	Name     string
	Elements int
	// Section is the number of elements per parent thread (default 1).
	Section int
	// Items returns the offloadable work items of element e.
	Items func(e int) int
	// Metric returns the workload metric a policy sees for element e
	// (defaults to Items; Mandel and MM use total-work metrics).
	Metric func(e int) int
	Ops    ItemOps

	// SetupLoads are per-element loads before the launch site
	// (reading row pointers, tuples, ...).
	SetupLoads int
	SetupAddr  func(e, slot int) uint64

	ParentCTASize int
	ChildCTASize  int
	RegsParent    int
	RegsChild     int

	// DefaultThreshold is the benchmark's Baseline-DP THRESHOLD.
	DefaultThreshold int

	Nest *Nest

	// child and grandchild are the device-launched kernels' Defs (the
	// latter only with a Nest), built by ParentDef once per parent Def
	// rather than once per launch candidate, and after any override of
	// ChildCTASize (Figure 7).
	child, grandchild *kernel.Def
	// spareNested holds the exhausted nested runners of child warps
	// (with their lane buffers), so a child warp reaching its serial
	// fallback reuses one instead of allocating it, and a warp parked at
	// the sync holds none. An App must not run in two simulations at
	// once.
	spareNested []*leafRunner
}

// ParentThreads is the parent-kernel thread count.
func (a *App) ParentThreads() int {
	s := a.Section
	if s < 1 {
		s = 1
	}
	return (a.Elements + s - 1) / s
}

// Normalize fills defaults and validates invariants. It is idempotent
// and called implicitly by ParentDef; callers that inspect Metric or
// Section before building defs should call it first.
func (a *App) Normalize() error {
	if a.Name == "" {
		return fmt.Errorf("workloads: app without name")
	}
	if a.Elements <= 0 {
		return fmt.Errorf("workloads: %s has %d elements", a.Name, a.Elements)
	}
	if a.Section < 1 {
		a.Section = 1
	}
	if a.Items == nil {
		return fmt.Errorf("workloads: %s has no Items function", a.Name)
	}
	if a.Metric == nil {
		a.Metric = a.Items
	}
	if a.ParentCTASize == 0 {
		a.ParentCTASize = 256
	}
	if a.ChildCTASize == 0 {
		a.ChildCTASize = 32
	}
	if a.RegsParent == 0 {
		// Parent kernels are register-heavy (40 regs x 256 threads =
		// 10240 regs/CTA -> 6 CTAs per 65536-register SMX): parents
		// occupy ~75%% of thread slots, leaving room for child CTAs to
		// co-execute from the start, as in the paper's Figure 6.
		a.RegsParent = 40
	}
	if a.RegsChild == 0 {
		a.RegsChild = 16
	}
	if (a.Ops.Loads+a.Ops.Stores > 0) && a.Ops.Addr == nil {
		return fmt.Errorf("workloads: %s has memory slots but no Addr", a.Name)
	}
	if a.Ops.FinalStores > 0 && a.Ops.FinalAddr == nil {
		return fmt.Errorf("workloads: %s has final stores but no FinalAddr", a.Name)
	}
	if a.SetupLoads > 0 && a.SetupAddr == nil {
		return fmt.Errorf("workloads: %s has setup loads but no SetupAddr", a.Name)
	}
	if a.Nest != nil {
		if a.Nest.SubItems == nil || a.Nest.Encode == nil {
			return fmt.Errorf("workloads: %s nest missing SubItems/Encode", a.Name)
		}
		if a.Nest.CTASize == 0 {
			a.Nest.CTASize = 32
		}
	}
	return nil
}

// TotalWork sums the workload metric over all elements (the Figure 5
// denominator).
func (a *App) TotalWork() int64 {
	var t int64
	for e := 0; e < a.Elements; e++ {
		t += int64(a.Metric(e))
	}
	return t
}

// OffloadFractionAt returns the fraction of the workload metric that a
// static THRESHOLD=T would offload (elements with Metric > T launch).
func (a *App) OffloadFractionAt(t int) float64 {
	var total, off int64
	for e := 0; e < a.Elements; e++ {
		m := int64(a.Metric(e))
		total += m
		if m > int64(t) {
			off += m
		}
	}
	if total == 0 {
		return 0
	}
	return float64(off) / float64(total)
}

// ThresholdForOffload returns the smallest THRESHOLD whose offload
// fraction does not exceed the target fraction (used to place Figure 5's
// x-axis points).
func (a *App) ThresholdForOffload(frac float64) int {
	max := 0
	for e := 0; e < a.Elements; e++ {
		if m := a.Metric(e); m > max {
			max = m
		}
	}
	lo, hi := 0, max // offload(lo)=max fraction, offload(hi)=0
	for lo < hi {
		mid := (lo + hi) / 2
		if a.OffloadFractionAt(mid) <= frac {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
