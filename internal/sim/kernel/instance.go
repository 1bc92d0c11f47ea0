package kernel

import "fmt"

// WarpState is the scheduling state of a warp.
type WarpState uint8

const (
	// WarpReady means the warp issues its next instruction once the
	// clock reaches ReadyAt.
	WarpReady WarpState = iota
	// WarpAtSync means the warp reached DeviceSynchronize and waits for
	// its CTA's outstanding children to drain.
	WarpAtSync
	// WarpDone means the warp retired.
	WarpDone
)

// CTAState is the lifecycle state of a CTA.
type CTAState uint8

const (
	// CTAQueued means the CTA has not been dispatched to an SMX yet.
	CTAQueued CTAState = iota
	// CTARunning means the CTA occupies SMX resources.
	CTARunning
	// CTAWaitingSync means every warp reached the final synchronization
	// point; the CTA relinquished its SMX resources (Section II-C) and
	// waits for its children to complete.
	CTAWaitingSync
	// CTADone means the CTA fully completed (including children).
	CTADone
)

// Kernel is a runtime kernel instance flowing through the GMU.
type Kernel struct {
	ID  int
	Def *Def
	// GridCTAs, Threads and Arg are the launch configuration: the grid
	// in CTAs, the live threads (resolved, so never zero) and the
	// argument every warp's Def.NewProgram receives.
	GridCTAs int
	Threads  int
	Arg      int
	Stream   StreamID
	// Parent is the CTA that launched this kernel; nil for host launches.
	// Its OutstandingChildren counter is decremented when this kernel
	// completes (DeviceSynchronize accounting). ParentGen is Parent's Gen
	// at the launch: the CTA cannot be released while this kernel counts
	// against it, so a different Gen means a use after release.
	Parent    *CTA
	ParentGen uint32
	// Aggregated marks a DTBL CTA group: dispatched from the direct
	// queue, bypassing HWQ slots.
	Aggregated bool
	// Workload is the number of work items this kernel processes
	// (for offload accounting).
	Workload int

	// Timing (filled by the simulator).
	LaunchCycle   Cycle // decision/API-call cycle
	ArrivalCycle  Cycle // entered the pending pool (post launch overhead)
	FirstDispatch Cycle
	DoneCycle     Cycle

	// Progress.
	NextCTA  int // next CTA index to dispatch
	CTAsDone int
	// SuspendedCTAs counts CTAs parked in CTAWaitingSync. When a fully
	// dispatched kernel has every remaining CTA suspended it may yield
	// its HWQ slot so descendants queued behind it can dispatch.
	SuspendedCTAs int
	// Yielded marks a kernel that released its HWQ headship while
	// suspended (it completes off-queue).
	Yielded bool

	// Gen counts the kernel's releases to the simulator's free list, and
	// Released marks it as sitting there (see the package doc).
	Gen      uint32
	Released bool
}

// CheckParents audits k's Parent chain: every launching CTA up to the
// host kernel must be live and of the Gen its child's launch recorded,
// since a CTA outlives all of its children. It returns a
// *InvariantError for a released or stale parent, or nil.
func (k *Kernel) CheckParents(now Cycle) error {
	for ; k.Parent != nil; k = k.Parent.Kernel {
		if p := k.Parent; p.Released || p.Gen != k.ParentGen {
			return Invariantf(now, "kernel", "%v has released or stale parent CTA %d (gen %d, launched at gen %d)",
				k, p.Index, p.Gen, k.ParentGen)
		}
	}
	return nil
}

// MarkReleased records that k went back to a free list.
func (k *Kernel) MarkReleased() {
	k.Gen++
	k.Released = true
}

// FullySuspended reports whether the kernel dispatched everything and all
// incomplete CTAs are waiting on children.
func (k *Kernel) FullySuspended() bool {
	return k.Dispatched() && k.CTAsDone+k.SuspendedCTAs >= k.GridCTAs
}

// IsChild reports whether this kernel was launched from the device.
func (k *Kernel) IsChild() bool { return k.Parent != nil }

// Dispatched reports whether all CTAs have been sent to SMXs.
func (k *Kernel) Dispatched() bool { return k.NextCTA >= k.GridCTAs }

// Done reports whether all CTAs completed.
func (k *Kernel) Done() bool { return k.CTAsDone >= k.GridCTAs }

func (k *Kernel) String() string {
	return fmt.Sprintf("kernel %d (%s, %d CTAs, stream %d)", k.ID, k.Def.Name, k.GridCTAs, k.Stream)
}

// CTA is a runtime CTA instance resident on (or detached from) an SMX.
type CTA struct {
	Kernel *Kernel
	Index  int // CTA index within the grid
	State  CTAState
	SMX    int // SMX the CTA runs on (valid while CTARunning)

	Warps []*Warp

	StartCycle Cycle // first cycle on the SMX

	// runningWarps counts warps not yet Done/AtSync.
	runningWarps int
	// OutstandingChildren counts device launches from this CTA's warps
	// (kernels or DTBL groups) that have not completed.
	OutstandingChildren int

	// ChildStream is the SWQ id shared by all children of this CTA under
	// StreamPerParentCTA mode (0 = not yet assigned; stream ids start at 1).
	ChildStream StreamID

	// Resource reservation held while CTARunning.
	Regs      int
	SharedMem Bytes
	Threads   ThreadCount

	// Gen counts the CTA's releases to the simulator's free list, and
	// Released marks it as sitting there (see the package doc).
	Gen      uint32
	Released bool
	// progs is the Def whose NewProgram built the warps' programs, so a
	// reuse for the same Def can hand each program back to it.
	progs *Def
}

// RunningWarps returns the count of warps still executing instructions.
func (c *CTA) RunningWarps() int { return c.runningWarps }

// Warp is a runtime warp instance.
type Warp struct {
	CTA   *CTA
	Index int // warp index within the CTA
	Lanes int // live lanes (the last warp of a grid may be partial)

	Prog  Program
	State WarpState

	// ReadyAt is the earliest cycle the warp may issue its next
	// instruction.
	ReadyAt Cycle
	// Age orders warps for the Greedy-Then-Oldest scheduler
	// (smaller = older). It is an ordinal, not a timestamp, so it is
	// deliberately not a Cycle.
	Age uint64

	// PendingLaunches counts child launches from this warp that have not
	// yet arrived in the pending pool (drives the Table II x term).
	PendingLaunches int
	// LaunchPipeFree is when this warp's serialized launch pipeline can
	// accept the next launch.
	LaunchPipeFree Cycle

	// In-progress launch instruction: when the warp's pending-launch
	// pool fills mid-instruction, the remaining candidates stall and are
	// decided when slots free up (real device launches serialize through
	// a bounded pending-launch buffer).
	LaunchBuf    []LaunchCandidate
	LaunchCursor int
	InLaunch     bool

	// Exec carries launch feedback into the program.
	Exec Exec

	// Gen counts the warp's releases (with its CTA) to the simulator's
	// free list, and Released marks it as sitting there.
	Gen      uint32
	Released bool
}

// NewCTA materializes CTA `index` of kernel k with its warps and their
// programs. warpSize is the hardware warp width. reuse, when non-nil, is
// a released CTA (see MarkReleased) to reinitialise instead of
// allocating: its warps are reused with their launch-buffer and Accepted
// capacity, and when it last ran k's Def each warp's program is handed
// back to NewProgram.
func NewCTA(k *Kernel, index, warpSize int, reuse *CTA) *CTA {
	d := k.Def
	c := reuse
	if c == nil {
		c = &CTA{} //spawnvet:allow hotpath miss path of the simulator's CTA free list (sim.GPU.takeCTA)
	}
	// Warps of the CTA's earlier lives, kept past len by the reslice.
	spare := c.Warps[:cap(c.Warps)]
	progs := c.progs
	*c = CTA{
		Kernel:    k,
		Index:     index,
		State:     CTAQueued,
		SMX:       -1,
		Warps:     c.Warps[:0],
		Regs:      d.RegsPerThread * d.CTAThreads,
		SharedMem: d.SharedMemBytes,
		Threads:   ThreadCount(d.CTAThreads),
		Gen:       c.Gen,
		progs:     d,
	}
	for w := 0; w < d.WarpsPerCTA(warpSize); w++ {
		lanes := d.WarpLanes(k.Threads, index, w, warpSize)
		if lanes <= 0 {
			break // fully inactive trailing warps: never scheduled
		}
		var wp *Warp
		var old Program
		if w < len(spare) && spare[w] != nil {
			wp = spare[w]
			if progs == d {
				old = wp.Prog
			}
		} else {
			wp = &Warp{} //spawnvet:allow hotpath miss path of the simulator's CTA free list: a reused CTA keeps its warps (sim.GPU.takeCTA)
		}
		*wp = Warp{
			CTA:       c,
			Index:     w,
			Lanes:     lanes,
			LaunchBuf: wp.LaunchBuf[:0],
			Exec:      Exec{Accepted: wp.Exec.Accepted[:0]},
			Gen:       wp.Gen,
		}
		//spawnvet:allow hotpath NewProgram is a required field, not an optional hook: LaunchHost and launchChild reject a Def without one (Def.Validate)
		wp.Prog = d.NewProgram(k.Arg, index, w, lanes, old)
		c.Warps = append(c.Warps, wp)
	}
	c.runningWarps = len(c.Warps)
	return c
}

// MarkReleased records that c went back to a free list with its warps,
// which keep their programs for the next NewCTA of the same Def.
func (c *CTA) MarkReleased() {
	c.Gen++
	c.Released = true
	for _, w := range c.Warps {
		w.Gen++
		w.Released = true
	}
}

// WarpRetired records that a warp finished or parked at sync.
// It returns true when this was the last running warp of the CTA.
func (c *CTA) WarpRetired(now Cycle) bool {
	c.runningWarps--
	if c.runningWarps < 0 {
		panic(Invariantf(now, "kernel", "CTA %d of %v retired more warps than it has", c.Index, c.Kernel))
	}
	return c.runningWarps == 0
}
