// Package gmu models the Grid Management Unit: the pending kernel pool,
// the mapping of software work queues (streams) onto the 32 hardware
// work queues (HWQs), and the round-robin CTA dispatcher.
//
// Kernels within one HWQ are strictly FIFO: only the head-of-line kernel
// may dispatch CTAs, and it holds the HWQ slot until it completes. That
// bounds kernel concurrency at NumHWQs (32 on Kepler) and reproduces
// both the concurrent-kernel limit and HyperQ false serialization the
// paper's Section III-A discusses. DTBL aggregated CTA groups bypass the
// HWQs through a direct dispatch queue.
package gmu

import (
	"strconv"

	"spawnsim/internal/config"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/stats"
)

// PlaceFunc attempts to dispatch the next CTA of k onto some SMX.
// It returns true on success (the callee performs all CTA bookkeeping).
type PlaceFunc func(k *kernel.Kernel) bool

// GMU is the grid management unit.
type GMU struct {
	cfg config.GPU

	hwqs []stats.Seq[*kernel.Kernel] // FIFO per hardware work queue

	// direct holds, in arrival order, the DTBL aggregated kernels (CTA
	// groups, no HWQ slot) that still have undispatched CTAs. Only the
	// front group is ever placed and NextCTA only grows, so a group
	// leaves from the front once its last CTA is placed; groups counts
	// the resident aggregated kernels, dispatched or not.
	direct stats.Seq[*kernel.Kernel]
	groups int
	// readyHWQs counts the HWQs whose head kernel still has undispatched
	// CTAs, so HasDispatchable needs no queue scan. Every change of an
	// HWQ head (Enqueue into an empty queue, Yield, KernelCompleted) and
	// every head's last dispatch updates it; CheckInvariants recounts it.
	readyHWQs int

	rr int // round-robin cursor over queues (hwqs + direct)

	pendingCTAs int // undispatched CTAs across all queued kernels
	queuedKerns int
	occupied    int // HWQs with at least one resident kernel

	// stalledNow latches the last Dispatch call's back-pressure
	// decision, so the profiler can attribute a zero-placement cycle
	// without re-consulting the injector (whose hooks may emit events).
	stalledNow bool

	// stalled, when non-nil, is consulted at the top of Dispatch: a true
	// return models transient pending-pool back-pressure and suspends CTA
	// dispatch for the cycle (the fault injector's HWQ-stall hook).
	stalled func(now kernel.Cycle) bool

	// QueueLatency accumulates, per kernel, the cycles between pending-
	// pool arrival and first CTA dispatch (the paper's queuing latency).
	QueueLatency stats.Mean

	// Observability (nil when metrics are disabled; see Instrument).
	mEnqueues   []*metrics.Counter // per queue: hwqs then direct
	mDispatched *metrics.Counter
	mYields     *metrics.Counter
	mQueueLat   *metrics.Histogram
	mQueuedPeak *metrics.Gauge
}

// New creates a GMU for the given configuration.
func New(cfg config.GPU) *GMU {
	return &GMU{
		cfg:  cfg,
		hwqs: make([]stats.Seq[*kernel.Kernel], cfg.NumHWQs),
	}
}

// Instrument registers the GMU's observability series with reg:
// per-HWQ enqueue counters (queue=<i>, queue=direct for DTBL groups),
// CTA dispatch and yield counters, the queue-latency histogram, and
// snapshot-time gauges over pool depth and HWQ occupancy. No-op when
// reg is nil.
func (g *GMU) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	g.mEnqueues = make([]*metrics.Counter, len(g.hwqs)+1)
	for i := range g.hwqs {
		g.mEnqueues[i] = reg.Counter("gmu_enqueued_kernels", "queue", strconv.Itoa(i))
	}
	g.mEnqueues[len(g.hwqs)] = reg.Counter("gmu_enqueued_kernels", "queue", "direct")
	g.mDispatched = reg.Counter("gmu_dispatched_ctas")
	g.mYields = reg.Counter("gmu_kernel_yields")
	g.mQueueLat = reg.Histogram("gmu_queue_latency_cycles")
	g.mQueuedPeak = reg.Gauge("gmu_queued_kernels_peak")
	reg.GaugeFunc("gmu_pending_ctas", func() float64 { return float64(g.pendingCTAs) })
	reg.GaugeFunc("gmu_queued_kernels", func() float64 { return float64(g.queuedKerns) })
	reg.GaugeFunc("gmu_occupied_hwqs", func() float64 { return float64(g.ConcurrentKernelSlots()) })
}

// Enqueue places a kernel into the pending pool (post launch overhead).
// Aggregated (DTBL) kernels go to the direct queue; others to the HWQ
// selected by their stream id.
func (g *GMU) Enqueue(k *kernel.Kernel) {
	qi := len(g.hwqs) // direct queue index in mEnqueues
	if k.Aggregated {
		g.direct.PushBack(k)
		g.groups++
	} else {
		qi = int(uint32(k.Stream) % uint32(g.cfg.NumHWQs))
		g.hwqs[qi].PushBack(k)
		if g.hwqs[qi].Len() == 1 {
			g.occupied++
			g.readyHWQs += headReady(&g.hwqs[qi])
		}
	}
	g.pendingCTAs += k.GridCTAs
	g.queuedKerns++
	if g.mEnqueues != nil {
		g.mEnqueues[qi].Inc()
		g.mQueuedPeak.SetMax(float64(g.queuedKerns))
	}
}

// numQueues counts HWQs plus the direct queue.
func (g *GMU) numQueues() int { return len(g.hwqs) + 1 }

// headOf returns the dispatchable head kernel of queue qi, or nil.
func (g *GMU) headOf(qi int) *kernel.Kernel {
	if qi == len(g.hwqs) {
		// Direct queue: CTA groups do not hold kernel slots, so the
		// first group with undispatched CTAs is eligible regardless of
		// groups still running ahead of it.
		return g.direct.Front()
	}
	if k := g.hwqs[qi].Front(); k != nil && !k.Dispatched() {
		return k
	}
	return nil
}

// Dispatch attempts to place up to CTADispatchRate CTAs this cycle,
// rotating round-robin across the HWQs and the direct queue. place is
// responsible for SMX selection, resource checks, and CTA bookkeeping
// (including advancing k.NextCTA). It returns the number of CTAs placed.
func (g *GMU) Dispatch(now kernel.Cycle, place PlaceFunc) int {
	if g.stalled != nil && g.stalled(now) {
		g.stalledNow = true
		return 0
	}
	g.stalledNow = false
	placed := 0
	for placed < g.cfg.CTADispatchRate {
		n := g.numQueues()
		progressed := false
		for scan := 0; scan < n; scan++ {
			qi := (g.rr + scan) % n
			k := g.headOf(qi)
			if k == nil {
				continue
			}
			first := k.NextCTA == 0
			if !place(k) {
				continue
			}
			if first {
				g.QueueLatency.Add(float64(now - k.ArrivalCycle))
				g.mQueueLat.Observe(uint64(now - k.ArrivalCycle))
			}
			if k.Dispatched() {
				if k.Aggregated {
					g.direct.PopFront()
				} else {
					g.readyHWQs--
				}
			}
			g.pendingCTAs--
			placed++
			g.mDispatched.Inc()
			g.rr = (qi + 1) % n
			progressed = true
			break
		}
		if !progressed {
			break
		}
	}
	return placed
}

// Yield releases the HWQ headship of a fully suspended kernel (every
// incomplete CTA is parked at a synchronization point waiting for child
// kernels), so kernels queued behind it — typically its own descendants —
// can dispatch. This mirrors Kepler's grid suspension: a parent grid
// blocked on device-launched children must not hold a work-queue slot,
// or parent and child would deadlock. The yielded kernel completes
// off-queue.
//
// Note: a yielded kernel's same-stream successor may start before the
// yielded kernel completes, relaxing stream ordering for suspended
// kernels only (see DESIGN.md).
func (g *GMU) Yield(now kernel.Cycle, k *kernel.Kernel) {
	if k.Aggregated || k.Yielded {
		return
	}
	qi := int(uint32(k.Stream) % uint32(g.cfg.NumHWQs))
	q := &g.hwqs[qi]
	if q.Front() != k {
		panic(kernel.Invariantf(now, "gmu", "yielding %v which is not head of HWQ %d", k, qi))
	}
	g.popHead(q)
	k.Yielded = true
	g.mYields.Inc()
}

// KernelCompleted removes a finished kernel from its queue, unblocking
// the next kernel in that HWQ. A finished aggregated group already left
// the direct queue when its last CTA was placed.
func (g *GMU) KernelCompleted(now kernel.Cycle, k *kernel.Kernel) {
	g.queuedKerns--
	if k.Yielded {
		return // already off-queue
	}
	if k.Aggregated {
		if g.groups == 0 || !k.Dispatched() {
			panic(kernel.Invariantf(now, "gmu", "completed aggregated %v is not a resident, fully dispatched group", k))
		}
		g.groups--
		return
	}
	qi := int(uint32(k.Stream) % uint32(g.cfg.NumHWQs))
	q := &g.hwqs[qi]
	if q.Front() != k {
		panic(kernel.Invariantf(now, "gmu", "completed %v is not head of HWQ %d", k, qi))
	}
	g.popHead(q)
}

// popHead removes the head of HWQ q, keeping the occupied and ready-head
// counters current as the next kernel becomes the head.
func (g *GMU) popHead(q *stats.Seq[*kernel.Kernel]) {
	g.readyHWQs -= headReady(q)
	q.PopFront()
	if q.Len() == 0 {
		g.occupied--
	}
	g.readyHWQs += headReady(q)
}

// headReady is 1 when q's head kernel has undispatched CTAs, else 0.
func headReady(q *stats.Seq[*kernel.Kernel]) int {
	if k := q.Front(); k != nil && !k.Dispatched() {
		return 1
	}
	return 0
}

// SetBackpressure installs the transient-stall predicate consulted by
// Dispatch (nil disables it). The fault injector's HWQ-stall windows
// enter the GMU through here.
func (g *GMU) SetBackpressure(stalled func(now kernel.Cycle) bool) { g.stalled = stalled }

// CheckInvariants audits the GMU's accounting at cycle `now`: the
// pending-CTA counter must equal the undispatched CTAs summed over the
// queue members, only queue heads may have dispatched CTAs, every
// direct-queue member must have CTAs left, and the resident-kernel
// counter must cover every HWQ member and resident group, and the
// ready-head counter must equal the HWQ heads with CTAs left. Every member
// must be a live kernel in the queue it was enqueued on: a released
// kernel, or a recycled one whose stream or aggregation no longer maps
// to the queue, is a use after release.
// It returns a *kernel.InvariantError for the first violation, or nil.
func (g *GMU) CheckInvariants(now kernel.Cycle) error {
	members, remaining := 0, 0
	for qi := range g.hwqs {
		for pos := range g.hwqs[qi].Len() {
			k := g.hwqs[qi].At(pos)
			members++
			if k.Released {
				return kernel.Invariantf(now, "gmu", "HWQ %d holds released %v", qi, k)
			}
			if k.Aggregated || int(uint32(k.Stream)%uint32(g.cfg.NumHWQs)) != qi {
				return kernel.Invariantf(now, "gmu", "HWQ %d holds stale %v (aggregated %t)", qi, k, k.Aggregated)
			}
			if err := k.CheckParents(now); err != nil {
				return err
			}
			left := k.GridCTAs - int(k.NextCTA)
			if left < 0 {
				return kernel.Invariantf(now, "gmu", "HWQ %d: %v dispatched %d of %d CTAs",
					qi, k, k.NextCTA, k.GridCTAs)
			}
			remaining += left
			if pos > 0 && k.NextCTA != 0 {
				return kernel.Invariantf(now, "gmu", "HWQ %d: non-head %v has dispatched CTAs", qi, k)
			}
			if k.Yielded {
				return kernel.Invariantf(now, "gmu", "HWQ %d: yielded %v still enqueued", qi, k)
			}
		}
	}
	for pos := range g.direct.Len() {
		k := g.direct.At(pos)
		if k.Released || !k.Aggregated {
			return kernel.Invariantf(now, "gmu", "direct queue holds released or stale %v (aggregated %t)", k, k.Aggregated)
		}
		if err := k.CheckParents(now); err != nil {
			return err
		}
		left := k.GridCTAs - int(k.NextCTA)
		if left <= 0 {
			return kernel.Invariantf(now, "gmu", "direct queue: %v dispatched %d of %d CTAs",
				k, k.NextCTA, k.GridCTAs)
		}
		remaining += left
		if pos > 0 && k.NextCTA != 0 {
			return kernel.Invariantf(now, "gmu", "direct queue: non-head %v has dispatched CTAs", k)
		}
	}
	if g.direct.Len() > g.groups {
		return kernel.Invariantf(now, "gmu", "resident groups %d < %d direct-queue members",
			g.groups, g.direct.Len())
	}
	members += g.groups
	if remaining != g.pendingCTAs {
		return kernel.Invariantf(now, "gmu", "pending CTAs %d != %d undispatched across queues",
			g.pendingCTAs, remaining)
	}
	// Yielded kernels stay counted in queuedKerns until completion but
	// live off-queue, so queue membership is a lower bound.
	if g.queuedKerns < members {
		return kernel.Invariantf(now, "gmu", "resident kernels %d < %d queue members",
			g.queuedKerns, members)
	}
	occupied, ready := 0, 0
	for i := range g.hwqs {
		if g.hwqs[i].Len() > 0 {
			occupied++
		}
		ready += headReady(&g.hwqs[i])
	}
	if occupied != g.occupied {
		return kernel.Invariantf(now, "gmu", "occupied-HWQ counter %d != %d non-empty queues",
			g.occupied, occupied)
	}
	if ready != g.readyHWQs {
		return kernel.Invariantf(now, "gmu", "ready-head counter %d != %d HWQ heads with undispatched CTAs",
			g.readyHWQs, ready)
	}
	return nil
}

// PendingCTAs reports undispatched CTAs across all queues.
func (g *GMU) PendingCTAs() int { return g.pendingCTAs }

// QueuedKernels reports kernels resident in the pool (dispatching or
// waiting).
func (g *GMU) QueuedKernels() int { return g.queuedKerns }

// HasDispatchable reports whether any queue head has undispatched CTAs:
// an HWQ head counted in readyHWQs, or a direct-queue group (the direct
// queue holds only groups with CTAs left).
func (g *GMU) HasDispatchable() bool {
	return g.readyHWQs > 0 || g.direct.Len() > 0
}

// ConcurrentKernelSlots reports how many HWQ heads are occupied
// (the paper's "concurrent kernels" figure, bounded by 32). Maintained
// incrementally by Enqueue/Yield/KernelCompleted and audited by
// CheckInvariants.
func (g *GMU) ConcurrentKernelSlots() int { return g.occupied }

// DispatchState classifies the GMU's tick for the cycle-attribution
// profiler (see internal/profile): busy when kernels moved (an arrival
// or a CTA placement), otherwise attributing why a dispatchable head
// made no progress. Must be called after Dispatch for the same tick —
// the back-pressure attribution reads the decision Dispatch latched,
// never the injector itself (whose hooks may emit events).
func (g *GMU) DispatchState(arrived bool, placed int, hadDispatchable bool) profile.State {
	if arrived || placed > 0 {
		return profile.StateBusy
	}
	if hadDispatchable {
		if g.stalledNow {
			return profile.StallBackpressure
		}
		return profile.StallDispatch
	}
	if g.queuedKerns > 0 {
		return profile.StallQueue
	}
	return profile.StateIdle
}

// QueueState classifies HWQ residency for the profiler: idle when no
// queue slot is held, busy when a CTA was placed this tick, and
// stalled-on-queue otherwise (slots held but nothing could move —
// heads fully dispatched, suspended, or blocked behind HyperQ false
// serialization).
func (g *GMU) QueueState(placed int) profile.State {
	if g.occupied == 0 && g.groups == 0 {
		return profile.StateIdle
	}
	if placed > 0 {
		return profile.StateBusy
	}
	return profile.StallQueue
}
