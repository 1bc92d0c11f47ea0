// Package spawn implements SPAWN, the paper's contribution: a runtime
// controller that dynamically decides, at every device-side launch site,
// whether spawning the child kernel or serializing the work in the
// parent thread finishes sooner (Section IV, Algorithm 1).
//
// The controller models the GMU plus SMXs as the Child CTA Queuing
// System (CCQS): child CTAs are jobs, the SMXs the server. It monitors
//
//	n      — child CTAs resident in CCQS (queued + running),
//	t_cta  — historical average child CTA execution time,
//	n_con  — average concurrently executing child CTAs, averaged over a
//	         1024-cycle window with a right-shift-by-10 (Section IV-B),
//	t_warp — average child warp execution time (windowed likewise),
//
// and estimates
//
//	t_child  ≈ t_overhead + (x + n) · t_cta / n_con   (Equation 1)
//	t_parent ≈ workload · t_warp                      (Equation 2)
//
// launching iff t_child ≤ t_parent and n + x ≤ max_queue_size, and
// always launching while t_cta is still zero (cold start).
package spawn

import (
	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/stats"
)

// API-call costs charged by the SPAWN wrapper (Figure 14): the device
// launch call is always made; on "fail" it returns quickly.
const (
	acceptCycles  = 40
	declineCycles = 12
)

// Controller is the SPAWN controller plus its CCQS bookkeeping.
// It satisfies kernel.Policy. Not safe for concurrent use; the simulator
// is single-threaded.
type Controller struct {
	maxQueue int
	// coldCap bounds CCQS admissions while the controller is still
	// uncalibrated (t_cta == 0). The paper launches unconditionally
	// during cold start; at our simulation scale the warm-up window is a
	// much larger fraction of the run than in the paper's multi-million-
	// cycle executions, so an unbounded cold start floods the queue with
	// more kernels than the warm phase will ever launch. Capping cold
	// admissions at slightly above the hardware's concurrent-CTA
	// capacity recovers the paper's behaviour (see DESIGN.md).
	coldCap int64

	n int64 // child CTAs in CCQS

	tctaSum   float64 // cumulative child CTA execution cycles
	tctaCount int64

	twarpSum   float64
	twarpCount int64

	ncon     *stats.WindowedMean
	conLevel uint64       // currently executing child CTAs
	lastEdge kernel.Cycle // cycle of the last concurrency change

	// firstDefer is the cycle of the first cold-start deferral; past
	// firstDefer+deferWindow the controller reverts to the paper's
	// unconditional cold accept so deferred launches cannot livelock
	// (e.g. nested children waiting on completions that deferral itself
	// is blocking).
	firstDefer  kernel.Cycle
	deferWindow kernel.Cycle

	// Decision accounting (introspection and tests).
	Decisions int
	Accepts   int
}

// New creates a SPAWN controller for the given GPU configuration.
func New(cfg config.GPU) *Controller {
	return &Controller{
		maxQueue:    cfg.MaxPendingCTAs,
		coldCap:     int64(cfg.MaxConcurrentCTAs() + cfg.MaxConcurrentCTAs()/4),
		deferWindow: 2 * cfg.LaunchOverheadB,
		ncon:        stats.NewWindowedMean(uint(cfg.SpawnWindow)),
	}
}

// Name implements kernel.Policy.
func (c *Controller) Name() string { return "spawn" }

// tcta returns the historical average child CTA execution time
// (0 until the first CTA completes).
func (c *Controller) tcta() float64 {
	if c.tctaCount == 0 {
		return 0
	}
	return c.tctaSum / float64(c.tctaCount)
}

// twarp returns the historical average child warp execution time.
func (c *Controller) twarp() float64 {
	if c.twarpCount == 0 {
		return 0
	}
	return c.twarpSum / float64(c.twarpCount)
}

// nconEstimate returns the windowed average of concurrently executing
// child CTAs, floored at 1 to keep Equation 1 well defined before the
// first window completes.
func (c *Controller) nconEstimate() float64 {
	v := c.ncon.Value()
	if v < 1 {
		// Fall back to the instantaneous level during warm-up.
		if c.conLevel > 0 {
			return float64(c.conLevel)
		}
		return 1
	}
	return float64(v)
}

// Decide implements kernel.Policy (Algorithm 1).
func (c *Controller) Decide(site *kernel.LaunchSite) kernel.Decision {
	c.Decisions++
	x := int64(site.Candidate.GridCTAs)
	tcta := c.tcta()
	if tcta == 0 {
		// Cold start: no child CTA has completed yet (Algorithm 1 lines
		// 2-3). Beyond the admission cap, hold the API call instead of
		// irrevocably serializing work the controller cannot price yet.
		if c.n+x > c.coldCap {
			if c.firstDefer == 0 {
				c.firstDefer = site.Now
			}
			if site.Now-c.firstDefer <= c.deferWindow {
				return kernel.Decision{Action: kernel.Defer, APICycles: 2048}
			}
			// Deferral has not produced a completion: fall back to the
			// paper's unconditional cold launch to guarantee progress.
		}
		return c.accept(x)
	}
	if c.n+x > int64(c.maxQueue) {
		return c.decline()
	}
	tchild := float64(site.EstimatedOverhead) + float64(x+c.n)*tcta/c.nconEstimate()
	tparent := float64(site.Candidate.Workload) * c.twarp()
	if c.twarpCount == 0 {
		// No warp has completed: no serialization estimate yet; keep
		// spawning (mirrors the cold-start branch).
		return c.accept(x)
	}
	if tchild <= tparent {
		return c.accept(x)
	}
	return c.decline()
}

func (c *Controller) accept(x int64) kernel.Decision {
	c.n += x
	c.Accepts++
	return kernel.Decision{Action: kernel.LaunchKernel, APICycles: acceptCycles}
}

func (c *Controller) decline() kernel.Decision {
	return kernel.Decision{Action: kernel.Serialize, APICycles: declineCycles}
}

// integrateTo folds the concurrency level held since lastEdge into the
// windowed n_con average.
func (c *Controller) integrateTo(now kernel.Cycle) {
	if now > c.lastEdge {
		// The windowed accumulator is a raw-integer boundary.
		c.ncon.ObserveSpan(uint64(c.lastEdge), uint64(now-c.lastEdge), c.conLevel)
		c.lastEdge = now
	}
}

// OnChildQueued implements kernel.Policy. CCQS population was already
// accounted at decision time (Algorithm 1 line 8).
func (c *Controller) OnChildQueued(kernel.Cycle, int) {}

// OnChildCTAStart implements kernel.Policy.
func (c *Controller) OnChildCTAStart(now kernel.Cycle) {
	c.integrateTo(now)
	c.conLevel++
}

// OnChildCTAFinish implements kernel.Policy.
func (c *Controller) OnChildCTAFinish(now, start kernel.Cycle, warps int) {
	c.integrateTo(now)
	if c.conLevel > 0 {
		c.conLevel--
	}
	c.n--
	if c.n < 0 {
		// A CTA decided before the controller existed (not possible in
		// this codebase) or double-finish; clamp defensively.
		c.n = 0
	}
	c.tctaSum += float64(now - start)
	c.tctaCount++
}

// OnChildWarpFinish implements kernel.Policy.
func (c *Controller) OnChildWarpFinish(now, start kernel.Cycle) {
	c.twarpSum += float64(now - start)
	c.twarpCount++
}

// QueueDepth returns the controller's current CCQS population estimate.
func (c *Controller) QueueDepth() int64 { return c.n }

// SetColdCap overrides the cold-start admission cap (ablation studies;
// a very large value recovers the paper's unbounded cold start).
func (c *Controller) SetColdCap(cap int64) { c.coldCap = cap }

var _ kernel.Policy = (*Controller)(nil)
