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

// Kernel is a runtime kernel instance flowing through the GMU. Device
// kernels are the largest population of live objects in a nested run
// (tens of thousands queued at once), so the fields are ordered to pack
// and the per-kernel CTA counters are 32 bits wide: ValidateLaunch caps
// a grid at math.MaxInt32 CTAs, as CUDA caps gridDim.x.
type Kernel struct {
	ID  int
	Def *Def
	// GridCTAs, Threads and Arg are the launch configuration: the grid
	// in CTAs, the live threads (resolved, so never zero) and the
	// argument every warp's Def.NewProgram receives.
	GridCTAs int
	Threads  int
	Arg      int
	// Parent is the CTA that launched this kernel; nil for host launches.
	// Its OutstandingChildren counter is decremented when this kernel
	// completes (DeviceSynchronize accounting). ParentGen is Parent's Gen
	// at the launch: the CTA cannot be released while this kernel counts
	// against it, so a different Gen means a use after release.
	Parent *CTA

	// Timing (filled by the simulator).
	LaunchCycle  Cycle // decision/API-call cycle
	ArrivalCycle Cycle // entered the pending pool (post launch overhead)

	Stream    StreamID
	ParentGen uint32

	// Progress.
	NextCTA  int32 // next CTA index to dispatch
	CTAsDone int32
	// SuspendedCTAs counts CTAs parked in CTAWaitingSync. When a fully
	// dispatched kernel has every remaining CTA suspended it may yield
	// its HWQ slot so descendants queued behind it can dispatch.
	SuspendedCTAs int32

	// Gen counts the kernel's releases to the simulator's free list, and
	// Released marks it as sitting there (see the package doc).
	Gen      uint32
	Released bool

	// Aggregated marks a DTBL CTA group: dispatched from the direct
	// queue, bypassing HWQ slots.
	Aggregated bool
	// Yielded marks a kernel that released its HWQ headship while
	// suspended (it completes off-queue).
	Yielded bool
}

// CheckParents audits k's Parent chain: every launching CTA up to the
// host kernel must be live and of the Gen its child's launch recorded,
// since a CTA outlives all of its children, and a suspended one may
// hold only its own live warps with a launch in flight. Every suspended
// CTA has a live child, so the chains of the live kernels reach them
// all. It returns a *InvariantError for the first violation, or nil.
func (k *Kernel) CheckParents(now Cycle) error {
	for ; k.Parent != nil; k = k.Parent.Kernel {
		p := k.Parent
		if p.Released || p.Gen != k.ParentGen {
			return Invariantf(now, "kernel", "%v has released or stale parent CTA %d (gen %d, launched at gen %d)",
				k, p.Index, p.Gen, k.ParentGen)
		}
		if err := p.checkShell(now); err != nil {
			return err
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
	return k.Dispatched() && int(k.CTAsDone+k.SuspendedCTAs) >= k.GridCTAs
}

// IsChild reports whether this kernel was launched from the device.
func (k *Kernel) IsChild() bool { return k.Parent != nil }

// Dispatched reports whether all CTAs have been sent to SMXs.
func (k *Kernel) Dispatched() bool { return int(k.NextCTA) >= k.GridCTAs }

// Done reports whether all CTAs completed.
func (k *Kernel) Done() bool { return int(k.CTAsDone) >= k.GridCTAs }

func (k *Kernel) String() string {
	return fmt.Sprintf("kernel %d (%s, %d CTAs, stream %d)", k.ID, k.Def.Name, k.GridCTAs, k.Stream)
}

// CTA is a runtime CTA instance resident on (or detached from) an SMX.
// Once it suspends at DeviceSynchronize it is a shell: its warps go back
// to the simulator's free list as their launches land, and what waits
// for the children is the kernel, index, state, child count and Gen.
type CTA struct {
	Kernel *Kernel
	Index  int // CTA index within the grid
	State  CTAState
	SMX    int // SMX the CTA runs on (valid while CTARunning)

	// Warps are the CTA's warps while it runs; a suspended CTA keeps
	// only those whose launches are still in flight (see CheckParents).
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
}

// RunningWarps returns the count of warps still executing instructions.
func (c *CTA) RunningWarps() int { return c.runningWarps }

// checkShell audits a suspended CTA: every warp it still holds is live,
// its own, and has a launch in flight, since a warp whose launches all
// landed goes back to the free list. It returns a *InvariantError, or
// nil.
func (c *CTA) checkShell(now Cycle) error {
	if c.State != CTAWaitingSync {
		return nil
	}
	for _, w := range c.Warps {
		if w.Released || w.CTA != c || w.PendingLaunches <= 0 {
			return Invariantf(now, "kernel", "suspended CTA %d of %v holds warp %d (released %t, %d launches in flight)",
				c.Index, c.Kernel, w.Index, w.Released, w.PendingLaunches)
		}
	}
	return nil
}

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

	// Gen counts the warp's releases to the simulator's free list, and
	// Released marks it as sitting there (see the package doc).
	Gen      uint32
	Released bool
}

// NewCTA materializes CTA `index` of kernel k with its warps and their
// programs. warpSize is the hardware warp width. shell, when non-nil, is
// a released CTA (see CTA.MarkReleased) to reinitialise instead of
// allocating. spare, when non-nil, holds released warps (see
// Warp.MarkReleased) whose programs k.Def's NewProgram built: NewCTA
// takes the warps it needs from its end, keeping their launch-buffer
// and Accepted capacity and handing each program back to NewProgram,
// and allocates the rest.
func NewCTA(k *Kernel, index, warpSize int, shell *CTA, spare *[]*Warp) *CTA {
	d := k.Def
	c := shell
	if c == nil {
		c = &CTA{} //spawnvet:allow hotpath miss path of the simulator's CTA shell free list (sim.GPU.newCTA)
	}
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
	}
	for w := 0; w < d.WarpsPerCTA(warpSize); w++ {
		lanes := d.WarpLanes(k.Threads, index, w, warpSize)
		if lanes <= 0 {
			break // fully inactive trailing warps: never scheduled
		}
		var wp *Warp
		var old Program
		if spare != nil && len(*spare) > 0 {
			n := len(*spare) - 1
			wp, old = (*spare)[n], (*spare)[n].Prog
			(*spare)[n] = nil
			*spare = (*spare)[:n]
		} else {
			wp = &Warp{} //spawnvet:allow hotpath miss path of the simulator's per-Def warp free list (sim.GPU.newCTA)
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

// MarkReleased records that c went back to a free list as a shell; its
// warps go to their own list first (Warp.MarkReleased).
func (c *CTA) MarkReleased() {
	c.Gen++
	c.Released = true
}

// MarkReleased records that w went back to a free list, keeping its
// program for the next NewCTA of the same Def.
func (w *Warp) MarkReleased() {
	w.Gen++
	w.Released = true
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
