// Package kernel defines the shared vocabulary of the GPU simulator:
// kernel definitions, the abstract warp instruction stream, runtime
// instances (kernels, CTAs, warps), and the launch-policy contract that
// SPAWN and the baseline schemes implement.
//
// The model is warp-granular (as in GPGPU-Sim): a warp is the schedulable
// unit, and a warp's code is a Program — a generator of abstract
// instructions (ALU with a latency, memory with per-lane addresses,
// device-side kernel launches, and synchronization).
//
// A Def is code plus CTA shape, built once per application kernel; the
// launch configuration (grid, live threads, argument) rides on each
// LaunchCandidate and Kernel, as CUDA separates a kernel from its
// <<<grid, block>>>(args). Runtime instances are recycled: the simulator
// releases device kernels, CTA shells, and warps with their programs to
// free lists it owns, and NewCTA reinitialises a released shell and
// warps in place.
// Each recycled object carries a generation (Gen, bumped at every
// release) and a Released mark, so the invariant audit can reject a
// pointer that outlived the object it meant.
package kernel

import (
	"fmt"
	"math"
)

// StreamID identifies a software-managed work queue (a CUDA stream /
// "c_stream" in the paper). Kernels with the same StreamID execute
// sequentially; different StreamIDs may execute concurrently subject to
// the 32-HWQ hardware limit.
type StreamID uint32

// StreamMode selects how child kernels are assigned StreamIDs
// (the Figure 8 study).
type StreamMode int

const (
	// StreamPerChild gives each child kernel a unique StreamID
	// (the paper's default for all main experiments).
	StreamPerChild StreamMode = iota
	// StreamPerParentCTA gives all child kernels launched from one
	// parent CTA the same StreamID, serializing them.
	StreamPerParentCTA
)

func (m StreamMode) String() string {
	switch m {
	case StreamPerChild:
		return "per-child"
	case StreamPerParentCTA:
		return "per-parent-CTA"
	default:
		return fmt.Sprintf("StreamMode(%d)", int(m))
	}
}

// Def is a static kernel definition: its code, CTA shape and resource
// needs — CUDA's __global__ function plus its block size. The launch
// configuration, <<<grid, ...>>>(arg), travels with each launch: a
// device launch carries it on its LaunchCandidate, and every runtime
// Kernel records it, so one Def serves every launch of the same code.
type Def struct {
	// Name identifies the kernel code; DTBL may only coalesce CTAs onto a
	// running kernel with the same Name and CTAThreads.
	Name string
	// GridCTAs and Threads are the launch configuration of a host launch
	// (GPU.LaunchHost): the grid dimension in CTAs (c_grid) and the exact
	// number of threads with work; the trailing threads of the last CTA
	// beyond Threads are inactive lanes, and zero Threads means
	// GridCTAs*CTAThreads. Device launches ignore both.
	GridCTAs int
	Threads  int
	// CTAThreads is the CTA dimension in threads (c_cta).
	CTAThreads int
	// RegsPerThread and SharedMemBytes size the per-CTA resource
	// reservation on an SMX.
	RegsPerThread  int
	SharedMemBytes Bytes
	// NewProgram creates the instruction stream for one warp: arg is the
	// launch's argument (Kernel.Arg), cta the CTA index within the grid,
	// warp the warp index within the CTA and lanes its live lanes. old,
	// when non-nil, is a released program this Def built for an earlier
	// warp; NewProgram may reinitialise and return it instead of
	// allocating. The returned Program is owned by that warp.
	NewProgram func(arg, cta, warp, lanes int, old Program) Program
}

// TotalThreads returns the number of live threads of a host launch.
func (d *Def) TotalThreads() int { return d.LiveThreads(d.GridCTAs, d.Threads) }

// LiveThreads resolves a launch's thread count: threads when positive,
// otherwise every thread of a grid CTAs wide.
func (d *Def) LiveThreads(grid, threads int) int {
	if threads > 0 {
		return threads
	}
	return grid * d.CTAThreads
}

// WarpsPerCTA returns the warp count of one CTA given the warp size.
func (d *Def) WarpsPerCTA(warpSize int) int {
	return (d.CTAThreads + warpSize - 1) / warpSize
}

// WarpLanes returns the live lanes of warp `warp` in CTA `cta` of a
// launch with `threads` live threads: warpSize for a full warp, fewer in
// the grid's tail, and zero or less for a fully inactive trailing warp.
func (d *Def) WarpLanes(threads, cta, warp, warpSize int) int {
	return min(min(threads-cta*d.CTAThreads, d.CTAThreads)-warp*warpSize, warpSize)
}

// Validate reports the first inconsistency in the definition's code and
// CTA shape.
func (d *Def) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("kernel: empty name")
	case d.CTAThreads <= 0:
		return fmt.Errorf("kernel %s: CTAThreads = %d, want > 0", d.Name, d.CTAThreads)
	case d.NewProgram == nil:
		return fmt.Errorf("kernel %s: nil NewProgram", d.Name)
	}
	return nil
}

// ValidateLaunch reports the first inconsistency in launching d over
// grid CTAs with threads live threads (zero = the whole grid), the
// definition's own checks included.
func (d *Def) ValidateLaunch(grid, threads int) error {
	if err := d.Validate(); err != nil {
		return err
	}
	switch {
	case grid <= 0 || grid > math.MaxInt32:
		return fmt.Errorf("kernel %s: GridCTAs = %d, want in [1,%d]", d.Name, grid, math.MaxInt32)
	case threads < 0 || threads > grid*d.CTAThreads:
		return fmt.Errorf("kernel %s: Threads = %d out of range [0,%d]",
			d.Name, threads, grid*d.CTAThreads)
	}
	return nil
}

// GridFor returns the CTA count needed to cover `threads` threads with
// CTAs of `ctaSize` threads.
func GridFor(threads, ctaSize int) int {
	if threads <= 0 {
		return 1
	}
	return (threads + ctaSize - 1) / ctaSize
}
