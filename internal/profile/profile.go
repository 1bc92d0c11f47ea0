// Package profile is the simulator's cycle-attribution layer: it
// answers "where do simulated cycles go" with evidence dense enough to
// steer the event-driven engine rewrite (ROADMAP open item 1).
//
// Three views are assembled over one run:
//
//   - Activity accounting: every simulated tick, each machine component
//     (GMU, the HWQ block, the memory system, DRAM, each SMX) is
//     classified busy / stalled-on-X / idle into dense counters, plus an
//     idle-run-length histogram per component. The run lengths bound the
//     achievable event-skip speedup directly: a component whose idle
//     runs are long can be advanced in one step by an event wheel, one
//     whose runs are short cannot (see DESIGN.md).
//   - Kernel-lifecycle spans: the existing trace event stream (the
//     Profile is a trace.Sink) is folded into per-stage latency
//     histograms — launch transit, HWQ residency, execution — keyed by
//     launch site and policy decision kind.
//   - Sampled timelines: queue depth, pending CTAs, active warps, busy
//     SMXs/banks, occupancy, on a deterministic cycle schedule, feeding
//     CSV timelines and Perfetto counter tracks.
//
// The accumulation surface follows the internal/metrics nil contract: a
// nil *Profile no-ops on every method, so the engine pays one nil check
// per tick when profiling is off and zero allocations per tick when it
// is on. spawnvet's hotpath analyzer enforces that only the nil-safe
// accumulators (Note, EndTick, SkipTo, SampleDue, KernelSite, Finish,
// Record) appear in per-cycle call trees.
//
// Profiling never alters simulation artifacts: Results, trace streams
// and metrics snapshots are byte-identical with profiling on or off
// (guarded by TestProfileDoesNotPerturbArtifacts).
package profile

import (
	"math/bits"
	"strconv"
)

// State classifies one component's activity during one simulated tick.
type State uint8

const (
	// StateIdle: the component holds no work.
	StateIdle State = iota
	// StateBusy: the component did work this tick (issued a warp,
	// placed a CTA, accepted an arrival, served a transaction).
	StateBusy
	// StallLatency: resident work exists but is blocked on a timing
	// edge (memory or ALU latency) — an event wheel would sleep to the
	// wake cycle.
	StallLatency
	// StallSync: every resident warp is parked at a synchronization
	// point waiting on child kernels; only an external completion can
	// wake the component.
	StallSync
	// StallDispatch: the GMU had a dispatchable CTA but placed none
	// (no SMX had room, or every fitting SMX was offline).
	StallDispatch
	// StallBackpressure: dispatch was suppressed by injected pending-
	// pool back-pressure (the chaos injector's HWQ stall window).
	StallBackpressure
	// StallQueue: kernels hold queue slots but none could move — heads
	// running ahead, suspended, or blocked (HyperQ head-of-line time).
	StallQueue

	numStates // sentinel
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	case StallLatency:
		return "stall-latency"
	case StallSync:
		return "stall-sync"
	case StallDispatch:
		return "stall-dispatch"
	case StallBackpressure:
		return "stall-backpressure"
	case StallQueue:
		return "stall-queue"
	default:
		return "state(" + strconv.Itoa(int(s)) + ")"
	}
}

// Component indices inside a Profile. SMX i is CompSMX0+i.
const (
	CompGMU  = 0
	CompHWQ  = 1
	CompMem  = 2
	CompDRAM = 3
	CompSMX0 = 4
)

// DefaultSampleEvery is the timeline sampling period in cycles.
const DefaultSampleEvery = 4096

// Options configures a Profile. The zero value is valid.
type Options struct {
	// SampleEvery is the timeline sampling period in simulated cycles
	// (0 = DefaultSampleEvery). Samples are taken on the first ticked
	// cycle at or past each schedule point, so the timeline is a
	// deterministic function of the run alone.
	SampleEvery uint64
}

// Sample is one timeline point (queue depths and occupancy at a cycle).
type Sample struct {
	Cycle         uint64  `json:"cycle"`
	QueuedKernels int     `json:"queued_kernels"`
	PendingCTAs   int     `json:"pending_ctas"`
	ActiveWarps   int64   `json:"active_warps"`
	BusySMXs      int     `json:"busy_smxs"`
	BusyBanks     int     `json:"busy_banks"`
	Utilization   float64 `json:"utilization"`
}

// TickStats carries the per-tick machine snapshot into EndTick. All
// fields are raw integers sampled from counters the engine already
// maintains; BusyBanks and Utilization are gathered only on ticks where
// SampleDue reported true (they cost a scan).
type TickStats struct {
	Now           uint64
	QueuedKernels int
	PendingCTAs   int
	ActiveWarps   int64
	BusySMXs      int
	Transactions  uint64 // cumulative, memory transactions after coalescing
	DRAMAccesses  uint64 // cumulative
	BusyBanks     int    // sample ticks only
	Utilization   float64
}

// comp accumulates one component's activity.
type comp struct {
	name   string
	counts [numStates]uint64
	runLen uint64 // current non-busy run (ticked + skipped cycles)
	runs   hist
}

// Profile accumulates one run's attribution data. Create with New; a
// nil *Profile is the disabled profiler (every method no-ops), matching
// the internal/metrics receiver contract.
type Profile struct {
	comps []comp
	state []State // per-tick scratch, reset to idle by EndTick

	ticked   uint64 // cycles the engine actually simulated
	skipped  uint64 // cycles the quiescence fast-forward jumped over
	endCycle uint64
	finished bool

	lastTx   uint64
	lastDRAM uint64

	sampleEvery uint64
	nextSample  uint64
	samples     []Sample

	// Span assembly (see spans.go).
	sites     map[int]siteKey
	open      map[int]*openSpan
	agg       map[siteKey]*siteAgg
	anomalies uint64
}

// New creates a Profile for a machine with numSMX SMXs. numSMX 0 is
// valid (trace-ingest mode: only span assembly is fed).
func New(numSMX int, opts Options) *Profile {
	p := &Profile{
		comps:       make([]comp, CompSMX0+numSMX),
		state:       make([]State, CompSMX0+numSMX),
		sampleEvery: opts.SampleEvery,
		sites:       map[int]siteKey{},
		open:        map[int]*openSpan{},
		agg:         map[siteKey]*siteAgg{},
	}
	if p.sampleEvery == 0 {
		p.sampleEvery = DefaultSampleEvery
	}
	p.comps[CompGMU].name = "gmu"
	p.comps[CompHWQ].name = "hwq"
	p.comps[CompMem].name = "mem"
	p.comps[CompDRAM].name = "dram"
	for i := 0; i < numSMX; i++ {
		p.comps[CompSMX0+i].name = "smx" + strconv.Itoa(i)
	}
	return p
}

// Note records component comp's state for the current tick. Safe on a
// nil receiver; allocation-free.
func (p *Profile) Note(comp int, s State) {
	if p == nil {
		return
	}
	p.state[comp] = s
}

// SampleDue reports whether the timeline schedule wants a sample at
// cycle now, so the engine can gather the scan-cost fields of TickStats
// only when they will be kept. Safe on a nil receiver.
func (p *Profile) SampleDue(now uint64) bool {
	if p == nil {
		return false
	}
	return now >= p.nextSample
}

// EndTick folds the noted states plus the machine snapshot into the
// counters and closes the tick. The memory system and DRAM are
// classified here from cumulative counter deltas (busy exactly on
// issue ticks — an issue-side approximation; in-flight latency shows
// up on the consuming SMX as StallLatency instead). Safe on a nil
// receiver; allocation-free apart from amortized timeline growth.
func (p *Profile) EndTick(st TickStats) {
	if p == nil {
		return
	}
	p.state[CompMem] = busyIf(st.Transactions > p.lastTx)
	p.state[CompDRAM] = busyIf(st.DRAMAccesses > p.lastDRAM)
	p.lastTx, p.lastDRAM = st.Transactions, st.DRAMAccesses
	p.ticked++
	if st.Now >= p.endCycle {
		p.endCycle = st.Now + 1
	}
	for i := range p.comps {
		c := &p.comps[i]
		s := p.state[i]
		c.counts[s]++
		if s == StateBusy {
			if c.runLen > 0 {
				c.runs.observe(c.runLen)
				c.runLen = 0
			}
		} else {
			c.runLen++
		}
		p.state[i] = StateIdle
	}
	if st.Now >= p.nextSample {
		p.nextSample = st.Now + p.sampleEvery
		p.samples = append(p.samples, Sample{
			Cycle:         st.Now,
			QueuedKernels: st.QueuedKernels,
			PendingCTAs:   st.PendingCTAs,
			ActiveWarps:   st.ActiveWarps,
			BusySMXs:      st.BusySMXs,
			BusyBanks:     st.BusyBanks,
			Utilization:   st.Utilization,
		})
	}
}

// SkipTo records the engine's quiescence fast-forward from cycle now
// (which ticked) to cycle next (which will tick): the cycles in between
// never tick, count as skipped, and extend every component's current
// non-busy run — they are by construction cycles where nothing could
// change. Safe on a nil receiver; allocation-free.
func (p *Profile) SkipTo(now, next uint64) {
	if p == nil || next <= now+1 {
		return
	}
	n := next - now - 1
	p.skipped += n
	for i := range p.comps {
		p.comps[i].runLen += n
	}
}

// Finish pins the run's final cycle (result snapshot time, including
// aborted runs). Safe on a nil receiver; allocation-free.
func (p *Profile) Finish(end uint64) {
	if p == nil {
		return
	}
	if end > p.endCycle {
		p.endCycle = end
	}
}

// busyIf maps a did-work predicate to the two-way busy/idle states.
func busyIf(b bool) State {
	if b {
		return StateBusy
	}
	return StateIdle
}

// finalize closes open idle runs and still-open spans. Idempotent;
// called by Report.
func (p *Profile) finalize() {
	if p.finished {
		return
	}
	p.finished = true
	for i := range p.comps {
		c := &p.comps[i]
		if c.runLen > 0 {
			c.runs.observe(c.runLen)
			c.runLen = 0
		}
	}
	p.closeOpenSpans()
}

// hist is a power-of-two bucket histogram over uint64 values: bucket i
// counts values v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 holds zeros). Same shape as internal/metrics.Histogram,
// duplicated here so the profiler stays decoupled from the metrics
// registry and can serialize its buckets.
type hist struct {
	count, sum, max uint64
	buckets         [65]uint64
}

func (h *hist) observe(v uint64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(v)]++
}
