// Package sim wires the GPU together: SMXs, the GMU, the memory
// hierarchy, and the active launch policy. It advances the global clock,
// executes warp instruction streams, models launch overheads and
// DeviceSynchronize semantics, and collects the metrics the paper's
// evaluation reports.
package sim

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"spawnsim/internal/config"
	"spawnsim/internal/faults"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/sim/gmu"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/sim/mem"
	"spawnsim/internal/sim/smx"
	"spawnsim/internal/stats"
	"spawnsim/internal/trace"
)

// DefaultMaxCycles bounds a simulation that fails to terminate.
const DefaultMaxCycles = 2_000_000_000

// Engine selects the inner-loop implementation of Run. Both engines
// share one tick body and one dueness definition (see nextEvent), so
// they produce byte-identical Results, traces, metrics and profile
// reports; they differ only in how the clock crosses quiet spans.
type Engine uint8

const (
	// EngineWheel (the default) is the event wheel: the clock jumps to
	// the minimum next component event, and only components with due
	// work are visited on a ticked cycle.
	EngineWheel Engine = iota
	// EngineStepped is the reference mode: the clock advances one cycle
	// at a time and dueness is re-derived from component state at every
	// cycle, never trusting the wheel's jump target. It exists to gate
	// the wheel (TestEngineParity): any unsound next-event bound shows
	// up as an artifact divergence.
	EngineStepped
)

func (e Engine) String() string {
	switch e {
	case EngineWheel:
		return "wheel"
	case EngineStepped:
		return "stepped"
	default:
		return "engine(" + strconv.Itoa(int(e)) + ")"
	}
}

// ParseEngine maps the CLI spelling ("wheel", "stepped", or empty for
// the default) to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "wheel":
		return EngineWheel, nil
	case "stepped":
		return EngineStepped, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want wheel or stepped)", s)
}

// Options configures a GPU simulation.
type Options struct {
	Config     config.GPU
	Policy     kernel.Policy
	StreamMode kernel.StreamMode
	// Engine selects the inner-loop implementation (default:
	// EngineWheel). EngineStepped is the bit-identical reference mode.
	Engine Engine
	// SampleInterval, when non-zero, enables the time-series used by
	// Figures 6, 19 and 20 (one sample per SampleInterval cycles).
	SampleInterval kernel.Cycle
	// MaxCycles aborts the run when exceeded (0 = DefaultMaxCycles).
	MaxCycles kernel.Cycle
	// StallWindow, when non-zero, arms the cycle-progress watchdog: if
	// the machine makes no forward progress — no issued instruction,
	// launch decision, CTA placement, kernel arrival or completion —
	// for StallWindow consecutive ticked cycles (spanning at least
	// StallWindow cycles), the run aborts with AbortStalled and a
	// StallSnapshot instead of spinning to MaxCycles. Quiet spans the
	// engine fast-forwards (warps blocked on memory or children in
	// flight) are not ticked and never count, so legitimate waits never
	// trip the window; only livelock — e.g. a policy deferring the same
	// candidates forever, waking every cycle — accumulates toward it.
	StallWindow kernel.Cycle
	// DTBLLaunchCycles is the latency for a DTBL CTA-group launch
	// (0 = default 150 cycles; DTBL's point is that it is tiny compared
	// to the kernel launch overhead).
	DTBLLaunchCycles kernel.Cycle
	// Sinks receive the kernel/CTA lifecycle and launch-decision event
	// stream, in order (the bounded trace.Ring, streaming JSONL, the
	// Perfetto exporter, custom sinks; see internal/trace). Nil entries
	// are ignored. The simulator does not close sinks; their owner does.
	Sinks []trace.Sink
	// Metrics, when non-nil, instruments the run: the engine, GMU, SMXs
	// and memory hierarchy register their series with it (see
	// internal/metrics). When nil, metrics cost nothing.
	Metrics *metrics.Registry
	// Heartbeat, when non-nil, is invoked roughly every HeartbeatEvery
	// simulated cycles with run progress (long-run liveness reporting).
	Heartbeat func(Progress)
	// HeartbeatEvery is the heartbeat period in simulated cycles
	// (0 = default 5,000,000 when Heartbeat is set).
	HeartbeatEvery kernel.Cycle
	// Faults, when non-nil, injects the deterministic timing
	// perturbations its plan describes: launch transit delays, HWQ
	// back-pressure windows, SMX offline intervals, DRAM latency spikes
	// (see internal/faults). Injected faults are emitted into the trace
	// stream as FaultInjected events. Nil costs nothing.
	Faults *faults.Injector
	// CheckInvariants audits the machine's conservation laws every
	// InvariantEvery cycles and at completion; a violation aborts the
	// run with an AbortError wrapping the *InvariantError.
	CheckInvariants bool
	// InvariantEvery is the audit period in simulated cycles
	// (0 = default 65,536 when CheckInvariants is set).
	InvariantEvery kernel.Cycle
	// Profile, when non-nil, attaches the cycle-attribution profiler:
	// per-component busy/stall/idle accounting every tick, kernel-
	// lifecycle span assembly off the trace stream, and sampled queue-
	// depth/occupancy timelines (see internal/profile and
	// cmd/spawnreport). Costs one nil check per tick when unset and
	// never alters the Result, traces, or metrics.
	Profile *profile.Profile
	// Context, when non-nil, cancels the run: Run returns an AbortError
	// (kind canceled or deadline) with a partial Result once it observes
	// the cancellation. Checked every few thousand loop iterations, so
	// aborts land within milliseconds of wall time. A wall-clock budget
	// is a context deadline (context.WithTimeout).
	Context context.Context
}

// Progress is one heartbeat sample of a running simulation.
type Progress struct {
	Cycle         kernel.Cycle
	LiveKernels   int
	QueuedKernels int
	PendingCTAs   int
	// Elapsed is wall time since Run started; CyclesPerSec is the
	// simulation rate since the previous heartbeat.
	Elapsed      time.Duration
	CyclesPerSec float64
}

// flightItem is a kernel in launch transit toward the pending pool.
type flightItem struct {
	at   kernel.Cycle
	k    *kernel.Kernel
	warp *kernel.Warp // launching warp (nil for host launches)
}

// flightHeap is a concrete binary min-heap ordered by arrival cycle.
// It reproduces container/heap's sift order exactly — ties between
// equal arrival cycles must pop in the same order as before — but
// without boxing every flightItem through heap.Interface on the
// per-cycle launch and arrival paths.
type flightHeap []flightItem

func (h flightHeap) less(i, j int) bool { return h[i].at < h[j].at }

func (h *flightHeap) push(it flightItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *flightHeap) pop() flightItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	it := old[n]
	*h = old[:n]
	return it
}

func (h flightHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h flightHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// GPU is one simulated GPU instance. Create with New, submit host
// kernels with LaunchHost, then call Run.
type GPU struct {
	cfg  config.GPU
	pol  kernel.Policy
	mode kernel.StreamMode

	mem  *mem.Hierarchy
	gmu  *gmu.GMU
	smxs []*smx.SMX

	clock     kernel.Cycle
	ageSeq    uint64 // warp-age ordinal source, not a time
	kernelSeq int
	streamSeq uint32
	rrSMX     int

	engine Engine
	// dispWake is the GMU dispatcher's next-event cycle: the earliest
	// cycle a CTA-dispatch attempt could make progress it could not make
	// on the last attempt. Armed by the events that change dispatch
	// feasibility — kernel arrival, HWQ yield/completion (a new queue
	// head), SMX resource release (room for a blocked head), and a
	// rate-limited dispatch with work left — and cleared when consumed.
	dispWake kernel.Cycle
	// lastTick is the most recent ticked cycle; the tick entry books
	// the quiet span since it with prof.SkipTo, and result() flushes the
	// span still pending at snapshot time (abort paths).
	lastTick kernel.Cycle
	// issued marks, per SMX, whether a warp issued this tick (profiler
	// busy attribution; cleared at tick start when profiling).
	issued []bool

	flight      flightHeap
	liveKernels int

	maxCycles kernel.Cycle
	dtblLat   kernel.Cycle
	sinks     []trace.Sink
	prof      *profile.Profile

	// Watchdog state (see Options.StallWindow). progress counts forward-
	// progress events; the Run loop latches it into progressSeen and
	// counts progress-free ticked cycles in noProgress, aborting when
	// that reaches stallWindow. Counting ticks rather than raw cycles is
	// what keeps the watchdog both sound and quiet: a fast-forwarded
	// quiet span over a long memory or child wait contributes nothing no
	// matter how many cycles it spans, while a defer livelock — a wakeup
	// every cycle but never a decision — accumulates a tick per wakeup
	// until the window trips.
	stallWindow       kernel.Cycle
	progress          uint64
	progressSeen      uint64
	noProgress        kernel.Cycle
	lastProgressCycle kernel.Cycle

	inj *faults.Injector

	checkInv bool
	invEvery kernel.Cycle
	invNext  kernel.Cycle

	ctx context.Context

	// Observability (nil/empty when metrics are disabled).
	reg       *metrics.Registry
	mStalls   *metrics.Counter
	mTransit  *metrics.Histogram
	decBySite map[string]*siteCounters

	// Heartbeat state.
	hb          func(Progress)
	hbEvery     kernel.Cycle
	hbNext      kernel.Cycle
	hbStart     time.Time
	hbLastWall  time.Time
	hbLastCycle kernel.Cycle

	instr kernel.Instr

	// Metrics.
	activeWarps stats.TimeWeighted
	parentCTAs  stats.TimeWeighted
	childCTAs   stats.TimeWeighted

	launchCycles  []kernel.Cycle // accepted device-launch decision cycles
	childKernels  int
	dtblGroups    int
	launchOffers  int
	offeredWork   int64
	offloadedWork int64

	childCTAExec stats.Histogram
	childQueued  int

	sampleInterval kernel.Cycle
	parentSeries   *stats.LevelSeries
	childSeries    *stats.LevelSeries
	utilSeries     *stats.LevelSeries
}

// New builds a GPU from the options. It panics on an invalid
// configuration (a programming error, not an input error); use
// NewChecked when options come from user input.
func New(opts Options) *GPU {
	g, err := NewChecked(opts)
	if err != nil {
		//spawnvet:allow invariants documented constructor contract: New panics on invalid Options; NewChecked is the error-returning path
		panic(err)
	}
	return g
}

// NewChecked builds a GPU from the options, returning an error for an
// invalid configuration or fault plan instead of panicking.
func NewChecked(opts Options) (*GPU, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.Policy == nil {
		return nil, errors.New("sim: Options.Policy is nil")
	}
	if opts.Faults != nil {
		if err := opts.Faults.Plan().Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Engine > EngineStepped {
		return nil, fmt.Errorf("sim: unknown engine %d", opts.Engine)
	}
	g := &GPU{
		cfg:         opts.Config,
		pol:         opts.Policy,
		mode:        opts.StreamMode,
		engine:      opts.Engine,
		dispWake:    smx.NoEvent,
		mem:         mem.NewHierarchy(opts.Config),
		gmu:         gmu.New(opts.Config),
		maxCycles:   opts.MaxCycles,
		dtblLat:     opts.DTBLLaunchCycles,
		stallWindow: opts.StallWindow,
		checkInv:    opts.CheckInvariants,
		invEvery:    opts.InvariantEvery,
		ctx:         opts.Context,
	}
	for _, s := range opts.Sinks {
		if s != nil {
			g.sinks = append(g.sinks, s)
		}
	}
	if opts.Profile != nil {
		// The profiler assembles kernel-lifecycle spans from the same
		// event stream every other sink sees; attaching it changes what
		// is observed, never what is emitted.
		g.prof = opts.Profile
		g.sinks = append(g.sinks, opts.Profile)
	}
	if g.maxCycles == 0 {
		g.maxCycles = DefaultMaxCycles
	}
	if g.dtblLat == 0 {
		g.dtblLat = 150
	}
	if g.checkInv && g.invEvery == 0 {
		g.invEvery = 65_536
	}
	for i := 0; i < opts.Config.NumSMX; i++ {
		g.smxs = append(g.smxs, smx.New(i, &g.cfg))
	}
	g.issued = make([]bool, len(g.smxs))
	if opts.Faults != nil {
		g.inj = opts.Faults
		// The injector is a raw-integer boundary: adapt its uint64 hooks
		// to the engine's typed clock.
		g.gmu.SetBackpressure(func(now kernel.Cycle) bool { return g.inj.DispatchStalled(uint64(now)) })
		g.mem.SetDRAMPenalty(func(now kernel.Cycle) kernel.Cycle {
			return kernel.Cycle(g.inj.DRAMPenalty(uint64(now)))
		})
		prev := g.inj.OnEvent
		g.inj.OnEvent = func(e faults.Event) {
			if prev != nil {
				prev(e)
			}
			g.emit(trace.Event{Cycle: e.Cycle, Kind: trace.FaultInjected, CTA: e.Unit, Extra: int(e.Kind)})
		}
	}
	if opts.SampleInterval > 0 {
		g.sampleInterval = opts.SampleInterval
		g.parentSeries = stats.NewLevelSeries(uint64(opts.SampleInterval))
		g.childSeries = stats.NewLevelSeries(uint64(opts.SampleInterval))
		g.utilSeries = stats.NewLevelSeries(uint64(opts.SampleInterval))
	}
	if opts.Metrics != nil {
		g.instrument(opts.Metrics)
	}
	if opts.Heartbeat != nil {
		g.hb = opts.Heartbeat
		g.hbEvery = opts.HeartbeatEvery
		if g.hbEvery == 0 {
			g.hbEvery = 5_000_000
		}
	}
	return g, nil
}

// instrument registers the engine-level observability series and fans
// the registry out to every component.
func (g *GPU) instrument(reg *metrics.Registry) {
	g.reg = reg
	g.decBySite = map[string]*siteCounters{}
	g.mStalls = reg.Counter("sim_cta_placement_stalls")
	g.mTransit = reg.Histogram("sim_launch_transit_cycles")
	reg.GaugeFunc("sim_cycle", func() float64 { return float64(g.clock) })
	reg.GaugeFunc("sim_live_kernels", func() float64 { return float64(g.liveKernels) })
	reg.GaugeFunc("sim_active_warps", func() float64 { return float64(g.activeWarps.Level()) })
	reg.CounterFunc("sim_child_kernels", func() float64 { return float64(g.childKernels) })
	reg.CounterFunc("sim_dtbl_groups", func() float64 { return float64(g.dtblGroups) })
	reg.CounterFunc("sim_launch_offers", func() float64 { return float64(g.launchOffers) })
	g.gmu.Instrument(reg)
	g.mem.Instrument(reg)
	for _, m := range g.smxs {
		m.Instrument(reg)
	}
}

// siteCounters tallies policy outcomes attributed to one launch site
// (the parent kernel definition the decision was made in). A nil
// *siteCounters (metrics disabled) no-ops.
type siteCounters struct {
	accepted *metrics.Counter
	declined *metrics.Counter
	deferred *metrics.Counter
}

func (sc *siteCounters) incAccepted() {
	if sc != nil {
		sc.accepted.Inc()
	}
}

func (sc *siteCounters) incDeclined() {
	if sc != nil {
		sc.declined.Inc()
	}
}

func (sc *siteCounters) incDeferred() {
	if sc != nil {
		sc.deferred.Inc()
	}
}

// siteFor returns (creating on first use) the decision counters of one
// launch site. Only called when metrics are enabled.
func (g *GPU) siteFor(site string) *siteCounters {
	sc := g.decBySite[site]
	if sc == nil {
		pol := g.pol.Name()
		sc = &siteCounters{
			accepted: g.reg.Counter("launch_accepted", "site", site, "policy", pol),
			declined: g.reg.Counter("launch_declined", "site", site, "policy", pol),
			deferred: g.reg.Counter("launch_deferred", "site", site, "policy", pol),
		}
		g.decBySite[site] = sc
	}
	return sc
}

// emit fans a trace event out to the attached sinks (none when tracing
// is disabled).
func (g *GPU) emit(e trace.Event) {
	for _, s := range g.sinks {
		s.Record(e)
	}
}

// Clock returns the current simulation cycle.
func (g *GPU) Clock() kernel.Cycle { return g.clock }

// newStream issues a fresh software work queue id.
func (g *GPU) newStream() kernel.StreamID {
	g.streamSeq++
	return kernel.StreamID(g.streamSeq)
}

// streamFor assigns the SWQ id for a child launched by warp w, honoring
// the configured stream mode.
func (g *GPU) streamFor(w *kernel.Warp) kernel.StreamID {
	if g.mode == kernel.StreamPerParentCTA {
		if w.CTA.ChildStream == 0 {
			w.CTA.ChildStream = g.newStream()
		}
		return w.CTA.ChildStream
	}
	return g.newStream()
}

// LaunchHost submits a kernel from the host (step 1-4 of Figure 4).
// It may be called before Run or from a completion-free point of view;
// the kernel enters the pending pool at the current clock.
func (g *GPU) LaunchHost(def *kernel.Def) *kernel.Kernel {
	if err := def.Validate(); err != nil {
		panic(kernel.Invariantf(g.clock, "sim", "LaunchHost with invalid kernel def: %v", err))
	}
	g.kernelSeq++
	k := &kernel.Kernel{
		ID:          g.kernelSeq,
		Def:         def,
		Stream:      g.newStream(),
		LaunchCycle: g.clock,
	}
	g.liveKernels++
	g.prof.KernelSite(k.ID, "(host)", profile.KindHost)
	g.emit(trace.Event{Cycle: uint64(g.clock), Kind: trace.KernelSubmitted, Kernel: k.ID, CTA: -1})
	g.flight.push(flightItem{at: g.clock, k: k})
	return k
}

// launchChild creates and schedules a device-side child launch.
func (g *GPU) launchChild(now kernel.Cycle, w *kernel.Warp, cand *kernel.LaunchCandidate, aggregated bool) {
	if err := cand.Def.Validate(); err != nil {
		panic(kernel.Invariantf(now, "sim", "device launch from %s with invalid kernel def: %v", w.CTA.Kernel.Def.Name, err))
	}
	g.kernelSeq++
	k := &kernel.Kernel{
		ID:          g.kernelSeq,
		Def:         cand.Def,
		Parent:      w.CTA,
		Aggregated:  aggregated,
		Workload:    cand.Workload,
		LaunchCycle: now,
	}
	var arrival kernel.Cycle
	if aggregated {
		// DTBL thread-block launches serialize through the warp's
		// aggregation path like kernel launches do, but roughly an
		// order of magnitude cheaper (no grid setup, no GMU round trip).
		k.Stream = 0
		if w.LaunchPipeFree < now {
			w.LaunchPipeFree = now
		}
		w.LaunchPipeFree += g.dtblLat
		arrival = w.LaunchPipeFree + g.dtblLat
		w.PendingLaunches++
		g.dtblGroups++
		g.prof.KernelSite(k.ID, w.CTA.Kernel.Def.Name, profile.KindDTBL)
	} else {
		k.Stream = g.streamFor(w)
		// Per-warp serialized launch pipeline: the x-th concurrent
		// launch from one warp arrives after A*x + b cycles (Table II).
		if w.LaunchPipeFree < now {
			w.LaunchPipeFree = now
		}
		w.LaunchPipeFree += g.cfg.LaunchOverheadA
		arrival = w.LaunchPipeFree + g.cfg.LaunchOverheadB
		w.PendingLaunches++
		g.childKernels++
		g.prof.KernelSite(k.ID, w.CTA.Kernel.Def.Name, profile.KindDevice)
	}
	arrival += kernel.Cycle(g.inj.LaunchDelay(uint64(now), k.ID))
	w.CTA.OutstandingChildren++
	g.liveKernels++
	g.offloadedWork += int64(cand.Workload)
	g.launchCycles = append(g.launchCycles, now)
	g.emit(trace.Event{Cycle: uint64(now), Kind: trace.KernelSubmitted, Kernel: k.ID, CTA: -1, Extra: cand.Workload})
	g.flight.push(flightItem{at: arrival, k: k, warp: w})
}

// beginLaunch latches an InstrLaunch into the warp for (possibly
// stalled, resumable) processing.
func (g *GPU) beginLaunch(now kernel.Cycle, w *kernel.Warp, in *kernel.Instr) {
	w.LaunchBuf = append(w.LaunchBuf[:0], in.Candidates...)
	w.LaunchCursor = 0
	w.InLaunch = true
	if cap(w.Exec.Accepted) < len(w.LaunchBuf) {
		w.Exec.Accepted = make([]bool, len(w.LaunchBuf))
	}
	w.Exec.Accepted = w.Exec.Accepted[:len(w.LaunchBuf)]
	g.stepLaunch(now, w)
}

// oldestPendingArrival estimates when the warp's oldest in-flight launch
// reaches the pending pool (arrivals are spaced LaunchOverheadA apart,
// the newest landing at LaunchPipeFree + LaunchOverheadB).
func (g *GPU) oldestPendingArrival(now kernel.Cycle, w *kernel.Warp) kernel.Cycle {
	last := w.LaunchPipeFree + g.cfg.LaunchOverheadB
	span := g.cfg.LaunchOverheadA.Times(w.PendingLaunches - 1)
	t := now + 1
	if last > span && last-span > t {
		t = last - span
	}
	return t
}

// stepLaunch decides launch candidates until the instruction completes
// or the warp's pending-launch pool fills; in the latter case the warp
// stalls (each lane's device-launch API call needs a buffer slot, so
// lanes serialize through the bounded pool) and resumes here later —
// with the policy seeing the GPU state of the later cycle.
func (g *GPU) stepLaunch(now kernel.Cycle, w *kernel.Warp) {
	var busy kernel.Cycle
	limit := g.cfg.MaxPendingLaunches
	for w.LaunchCursor < len(w.LaunchBuf) {
		if limit > 0 && w.PendingLaunches >= limit {
			// Stall until a slot frees; decisions resume then.
			w.ReadyAt = g.oldestPendingArrival(now, w)
			if busy > 0 && now+busy > w.ReadyAt {
				w.ReadyAt = now + busy
			}
			return
		}
		cand := &w.LaunchBuf[w.LaunchCursor]
		site := kernel.LaunchSite{
			Now:                 now,
			Candidate:           cand,
			ParentIsChild:       w.CTA.Kernel.IsChild(),
			PendingWarpLaunches: w.PendingLaunches,
			EstimatedOverhead:   g.cfg.LaunchLatency(w.PendingLaunches + 1),
		}
		dec := g.pol.Decide(&site)
		var sc *siteCounters
		if g.reg != nil {
			sc = g.siteFor(w.CTA.Kernel.Def.Name)
		}
		if dec.Action == kernel.Defer {
			sc.incDeferred()
			g.emit(trace.Event{Cycle: uint64(now), Kind: trace.LaunchDeferred, CTA: -1, Extra: cand.Workload})
			// The runtime holds this lane's API call; the warp blocks
			// and the candidate is re-presented on resume.
			wait := dec.APICycles
			if wait < 1 {
				wait = 1
			}
			w.ReadyAt = now + wait
			if busy > 0 && now+busy > w.ReadyAt {
				w.ReadyAt = now + busy
			}
			return
		}
		g.launchOffers++
		g.offeredWork += int64(cand.Workload)
		busy += dec.APICycles
		switch dec.Action {
		case kernel.Serialize:
			sc.incDeclined()
			g.emit(trace.Event{Cycle: uint64(now), Kind: trace.LaunchDeclined, CTA: -1, Extra: cand.Workload})
			w.Exec.Accepted[w.LaunchCursor] = false
		case kernel.LaunchKernel:
			sc.incAccepted()
			g.emit(trace.Event{Cycle: uint64(now), Kind: trace.LaunchAccepted, CTA: -1, Extra: cand.Workload})
			w.Exec.Accepted[w.LaunchCursor] = true
			g.launchChild(now, w, cand, false)
		case kernel.LaunchCTAs:
			sc.incAccepted()
			w.Exec.Accepted[w.LaunchCursor] = true
			g.launchChild(now, w, cand, true)
		default:
			panic(kernel.Invariantf(now, "sim", "unknown action %v from policy %s", dec.Action, g.pol.Name()))
		}
		w.LaunchCursor++
		g.progress++ // a decided candidate is forward progress; a Defer is not
	}
	w.InLaunch = false
	if busy < 1 {
		busy = 1
	}
	w.ReadyAt = now + busy
}

// parkWarp removes a warp from scheduling (sync wait or retirement).
func (g *GPU) parkWarp(now kernel.Cycle, w *kernel.Warp, state kernel.WarpState) {
	w.State = state
	g.activeWarps.Add(uint64(now), -1)
	if w.CTA.WarpRetired(now) {
		g.ctaExecDone(now, w.CTA)
	}
}

// execSync processes DeviceSynchronize.
func (g *GPU) execSync(now kernel.Cycle, w *kernel.Warp) {
	if w.CTA.OutstandingChildren == 0 {
		// Nothing to wait for; continue immediately.
		w.ReadyAt = now + 1
		return
	}
	g.parkWarp(now, w, kernel.WarpAtSync)
}

// retireWarp handles a program that returned no further instructions.
func (g *GPU) retireWarp(now kernel.Cycle, w *kernel.Warp) {
	if w.CTA.Kernel.IsChild() {
		g.pol.OnChildWarpFinish(now, w.CTA.StartCycle)
	}
	g.parkWarp(now, w, kernel.WarpDone)
}

// ctaExecDone fires when the last warp of a CTA retired or parked: the
// CTA relinquishes its SMX resources (Section II-C). If children are
// still outstanding the CTA waits detached; otherwise it completes.
func (g *GPU) ctaExecDone(now kernel.Cycle, c *kernel.CTA) {
	g.smxs[c.SMX].Release(now, c)
	// Freed SMX resources can unblock a dispatchable-but-stuck head.
	g.wakeDispatch(now + 1)
	g.noteCTALevel(now, c.Kernel.IsChild(), -1)
	g.sampleUtilization(now)
	if c.Kernel.IsChild() {
		execTime := now - c.StartCycle
		g.childCTAExec.Add(float64(execTime))
		g.pol.OnChildCTAFinish(now, c.StartCycle, len(c.Warps))
	}
	if c.OutstandingChildren == 0 {
		g.completeCTA(now, c)
		return
	}
	c.State = kernel.CTAWaitingSync
	g.emit(trace.Event{Cycle: uint64(now), Kind: trace.CTASuspended, Kernel: c.Kernel.ID, CTA: c.Index})
	k := c.Kernel
	k.SuspendedCTAs++
	if k.FullySuspended() {
		// Every incomplete CTA of this kernel is blocked on children:
		// release the HWQ slot so descendants can dispatch.
		g.yieldKernel(now, k)
	}
}

// yieldKernel releases k's HWQ headship and wakes the dispatcher: the
// freed slot exposes the next kernel in that queue as a new head.
func (g *GPU) yieldKernel(now kernel.Cycle, k *kernel.Kernel) {
	g.gmu.Yield(now, k)
	g.emit(trace.Event{Cycle: uint64(now), Kind: trace.KernelYielded, Kernel: k.ID, CTA: -1})
	g.wakeDispatch(now + 1)
}

// wakeDispatch schedules a CTA-dispatch attempt no later than cycle at.
func (g *GPU) wakeDispatch(at kernel.Cycle) {
	if at < g.dispWake {
		g.dispWake = at
	}
}

// completeCTA finalizes a CTA whose warps retired and children drained.
func (g *GPU) completeCTA(now kernel.Cycle, c *kernel.CTA) {
	if c.State == kernel.CTAWaitingSync {
		c.Kernel.SuspendedCTAs--
	}
	c.State = kernel.CTADone
	g.emit(trace.Event{Cycle: uint64(now), Kind: trace.CTACompleted, Kernel: c.Kernel.ID, CTA: c.Index})
	for _, w := range c.Warps {
		w.State = kernel.WarpDone
	}
	k := c.Kernel
	k.CTAsDone++
	if k.Done() {
		g.completeKernel(now, k)
		return
	}
	if k.FullySuspended() && !k.Yielded {
		// The last non-suspended CTA just completed: the kernel now only
		// waits on children and must release its HWQ slot.
		g.yieldKernel(now, k)
	}
}

// completeKernel retires a kernel and wakes its parent CTA if this was
// the last outstanding child (completion can cascade through nesting).
func (g *GPU) completeKernel(now kernel.Cycle, k *kernel.Kernel) {
	k.DoneCycle = now
	g.emit(trace.Event{Cycle: uint64(now), Kind: trace.KernelCompleted, Kernel: k.ID, CTA: -1})
	g.gmu.KernelCompleted(now, k)
	// The freed HWQ slot can expose a new dispatchable queue head.
	g.wakeDispatch(now + 1)
	g.liveKernels--
	g.progress++
	if p := k.Parent; p != nil {
		p.OutstandingChildren--
		if p.OutstandingChildren == 0 && p.State == kernel.CTAWaitingSync {
			g.completeCTA(now, p)
		}
	}
}

// noteCTALevel maintains the concurrent parent/child CTA levels.
func (g *GPU) noteCTALevel(now kernel.Cycle, child bool, delta int64) {
	if child {
		g.childCTAs.Add(uint64(now), delta)
		if g.childSeries != nil {
			g.childSeries.Set(uint64(now), float64(g.childCTAs.Level()))
		}
	} else {
		g.parentCTAs.Add(uint64(now), delta)
		if g.parentSeries != nil {
			g.parentSeries.Set(uint64(now), float64(g.parentCTAs.Level()))
		}
	}
}

// sampleUtilization records the average Section III-A1 resource
// utilization across SMXs at a change point.
func (g *GPU) sampleUtilization(now kernel.Cycle) {
	if g.utilSeries == nil {
		return
	}
	g.utilSeries.Set(uint64(now), g.meanUtilization())
}

// meanUtilization averages the Section III-A1 resource utilization
// across SMXs (a scan; callers sample it, never per tick).
func (g *GPU) meanUtilization() float64 {
	sum := 0.0
	for _, m := range g.smxs {
		sum += m.Utilization()
	}
	return sum / float64(len(g.smxs))
}

// profTick classifies every component's tick for the attribution
// profiler. Only reached when profiling is enabled; the classification
// helpers read state the engine already maintains, and the expensive
// sampled fields (bank scan, utilization) are gathered only on
// timeline-sample ticks.
func (g *GPU) profTick(now kernel.Cycle, arrived bool, placed int, hasDisp bool, issued []bool) {
	p := g.prof
	p.Note(profile.CompGMU, g.gmu.DispatchState(arrived, placed, hasDisp))
	p.Note(profile.CompHWQ, g.gmu.QueueState(placed))
	busySMXs := 0
	for i, m := range g.smxs {
		if issued[i] {
			busySMXs++
		}
		p.Note(profile.CompSMX0+i, m.ActivityState(issued[i]))
	}
	st := profile.TickStats{
		Now:           uint64(now),
		QueuedKernels: g.gmu.QueuedKernels(),
		PendingCTAs:   g.gmu.PendingCTAs(),
		ActiveWarps:   g.activeWarps.Level(),
		BusySMXs:      busySMXs,
		Transactions:  g.mem.Transactions,
		DRAMAccesses:  g.mem.DRAMAccesses,
	}
	if p.SampleDue(uint64(now)) {
		st.BusyBanks = g.mem.BusyBanks(now)
		st.Utilization = g.meanUtilization()
	}
	p.EndTick(st)
}

// place attempts to dispatch the next CTA of k onto some SMX
// (round-robin CTA scheduler). Run hands it to gmu.Dispatch as a func
// value, which the call graph does not follow.
//
//spawnvet:hotpath
func (g *GPU) place(k *kernel.Kernel) bool {
	d := k.Def
	threads := kernel.ThreadCount(d.CTAThreads)
	regs := d.RegsPerThread * d.CTAThreads
	shmem := d.SharedMemBytes
	for i := 0; i < len(g.smxs); i++ {
		m := g.smxs[(g.rrSMX+i)%len(g.smxs)]
		if g.inj.SMXOffline(uint64(g.clock), m.ID) {
			continue
		}
		if !m.FitsRes(threads, regs, shmem) {
			continue
		}
		g.rrSMX = (g.rrSMX + i + 1) % len(g.smxs)
		c := kernel.NewCTA(k, k.NextCTA, g.cfg.WarpSize)
		k.NextCTA++
		m.Place(g.clock, c, &g.ageSeq)
		g.emit(trace.Event{Cycle: uint64(g.clock), Kind: trace.CTAPlaced, Kernel: k.ID, CTA: c.Index, Extra: m.ID})
		g.activeWarps.Add(uint64(g.clock), int64(len(c.Warps)))
		g.noteCTALevel(g.clock, k.IsChild(), 1)
		g.sampleUtilization(g.clock)
		if k.IsChild() {
			g.pol.OnChildCTAStart(g.clock)
		}
		g.progress++
		return true
	}
	g.mStalls.Inc()
	return false
}

// execute issues the next instruction of warp w at cycle now.
func (g *GPU) execute(now kernel.Cycle, w *kernel.Warp) {
	if w.InLaunch {
		g.stepLaunch(now, w)
		return
	}
	// Advancing a warp's program — issuing any instruction or retiring —
	// is forward progress for the stall watchdog. Resumed launch
	// decisions are not counted here: stepLaunch credits only decisions
	// that actually advance the cursor, so a policy deferring forever
	// cannot feed the watchdog.
	g.progress++
	in := &g.instr
	in.Reset()
	if !w.Prog.Next(&w.Exec, in) {
		g.retireWarp(now, w)
		return
	}
	switch in.Kind {
	case kernel.InstrALU:
		lat := kernel.Cycle(in.Lat)
		if lat < 1 {
			lat = 1
		}
		w.ReadyAt = now + lat
	case kernel.InstrMem:
		w.ReadyAt = g.mem.Access(now, w.CTA.SMX, in.Addrs)
	case kernel.InstrLaunch:
		g.beginLaunch(now, w, in)
	case kernel.InstrSync:
		g.execSync(now, w)
	default:
		panic(kernel.Invariantf(now, "sim", "unknown instruction kind %v", in.Kind))
	}
}

// processArrivals moves launch-flight kernels that reached the pending
// pool into the GMU. Returns true if anything arrived.
func (g *GPU) processArrivals(now kernel.Cycle) bool {
	any := false
	for len(g.flight) > 0 && g.flight[0].at <= now {
		it := g.flight.pop()
		it.k.ArrivalCycle = now
		if it.warp != nil {
			it.warp.PendingLaunches--
		}
		if it.k.IsChild() {
			g.childQueued++
			g.pol.OnChildQueued(now, it.k.Def.GridCTAs)
		}
		g.mTransit.Observe(uint64(now - it.k.LaunchCycle))
		g.emit(trace.Event{Cycle: uint64(now), Kind: trace.KernelArrived, Kernel: it.k.ID, CTA: -1})
		g.gmu.Enqueue(it.k)
		g.progress++
		any = true
	}
	return any
}

// heartbeat reports progress to the Options.Heartbeat callback.
//
//spawnvet:skipsafe wall-clock reads and hb pacing fields are presentation-only; they never feed Result, traces, metrics, or any simulated state
func (g *GPU) heartbeat(now kernel.Cycle) {
	//spawnvet:allow purity heartbeat rate is presentation-only; it never feeds Result, traces, or metrics
	wall := time.Now()
	rate := 0.0
	if dt := wall.Sub(g.hbLastWall).Seconds(); dt > 0 {
		rate = float64(now-g.hbLastCycle) / dt
	}
	//spawnvet:allow hotpath heartbeat only runs when Options.Heartbeat is set; Run guards the call with hb != nil
	g.hb(Progress{
		Cycle:         now,
		LiveKernels:   g.liveKernels,
		QueuedKernels: g.gmu.QueuedKernels(),
		PendingCTAs:   g.gmu.PendingCTAs(),
		Elapsed:       wall.Sub(g.hbStart),
		CyclesPerSec:  rate,
	})
	g.hbLastWall = wall
	g.hbLastCycle = now
}

// abort snapshots a partial Result and pairs it with an AbortError, so
// callers can flush sinks and inspect progress up to the abort cycle.
func (g *GPU) abort(kind AbortKind, now kernel.Cycle, cause error, detail string) (*Result, error) {
	return g.result(), &AbortError{
		Kind:        kind,
		Cycle:       now,
		LiveKernels: g.liveKernels,
		Err:         cause,
		Detail:      detail,
	}
}

// abortStalled snapshots the stuck machine for an AbortStalled abort:
// queue depths plus every component classified through the profiler's
// busy/idle/stall taxonomy, so the error reads like one attribution
// tick of the place the run wedged.
func (g *GPU) abortStalled(now kernel.Cycle) (*Result, error) {
	snap := &StallSnapshot{
		Window:        g.stallWindow,
		LastProgress:  g.lastProgressCycle,
		QueuedKernels: g.gmu.QueuedKernels(),
		PendingCTAs:   g.gmu.PendingCTAs(),
		ActiveWarps:   g.activeWarps.Level(),
	}
	comps := make([]string, 0, 2+len(g.smxs))
	//spawnvet:allow hotpath abortStalled runs at most once per run, on the abort return path, never per cycle
	comps = append(comps,
		//spawnvet:allow hotpath cold abort path; formatting the one terminal snapshot
		"gmu="+g.gmu.DispatchState(false, 0, g.gmu.HasDispatchable()).String(),
		//spawnvet:allow hotpath cold abort path; formatting the one terminal snapshot
		"hwq="+g.gmu.QueueState(0).String())
	for _, m := range g.smxs {
		//spawnvet:allow hotpath cold abort path; formatting the one terminal snapshot
		comps = append(comps, "smx"+strconv.Itoa(m.ID)+"="+m.ActivityState(false).String())
	}
	snap.Components = comps
	return g.result(), &AbortError{
		Kind:        AbortStalled,
		Cycle:       now,
		LiveKernels: g.liveKernels,
		Detail:      snap.String(),
		Stall:       snap,
	}
}

// ctlEvery is the loop-iteration period for wall-clock control checks
// (context cancellation, deadline). Iterations are sub-microsecond, so
// aborts land within a few milliseconds of the trigger.
const ctlEvery = 1 << 13

// nextEvent returns the earliest cycle at or after which some component
// has (or may have) due work; a value <= now means the engine must tick
// cycle now. This is the single dueness definition both engines share:
// the wheel jumps to it, the stepped reference re-evaluates it at every
// cycle. It is a pure query — it runs on the skip path, where nothing
// observable may change (spawnvet skipsafe) — built from each
// component's published next event:
//
//   - per-SMX scheduler wake cycles (smx.NextReady, a sound lower
//     bound: a warp's ReadyAt only moves on ticked cycles);
//   - the launch-transit heap head (the next kernel arrival);
//   - the dispatcher wake cycle (see the dispWake field);
//   - the next fault-epoch boundary while dispatchable work is queued:
//     an injected stall/offline window can block dispatch with work
//     pending, and the boundary is then a real event (the window
//     clears), not a deadlock.
func (g *GPU) nextEvent(now kernel.Cycle) kernel.Cycle {
	next := g.dispWake
	for _, m := range g.smxs {
		if r := m.NextReady(); r < next {
			next = r
		}
	}
	if len(g.flight) > 0 && g.flight[0].at < next {
		next = g.flight[0].at
	}
	if next > now && g.inj.Active() && g.gmu.HasDispatchable() {
		// Consulted only when otherwise quiet: on a due cycle the value
		// is only compared against now, so the boundary cannot matter.
		var from uint64
		if now > 0 {
			from = uint64(now - 1)
		}
		if nc := kernel.Cycle(g.inj.NextChange(from)); nc < next {
			next = nc
		}
	}
	return next
}

// injBoundary reports whether now is a fault-epoch boundary — the cycle
// an injected stall/offline window can clear, making a blocked dispatch
// attempt worth retrying even though no wake event fired.
func (g *GPU) injBoundary(now kernel.Cycle) bool {
	if now == 0 || !g.inj.Active() {
		return false
	}
	return kernel.Cycle(g.inj.NextChange(uint64(now-1))) == now
}

// Run simulates until every submitted kernel (and its descendants)
// completes, returning the collected metrics. Aborted runs — cycle
// budget, deadlock, cancellation, context deadline, invariant
// violation — return a partial *Result alongside an *AbortError.
func (g *GPU) Run() (*Result, error) {
	if g.liveKernels == 0 {
		return nil, fmt.Errorf("sim: Run called with no kernels submitted")
	}
	if g.hb != nil {
		//spawnvet:allow purity heartbeat wall-clock baseline is presentation-only
		g.hbStart = time.Now()
		g.hbLastWall = g.hbStart
		g.hbNext = g.hbEvery
	}
	g.invNext = g.invEvery
	ctl := 0
	for g.liveKernels > 0 {
		now := g.clock
		if now > g.maxCycles {
			return g.abort(AbortMaxCycles, now, nil,
				fmt.Sprintf("exceeded max cycles (%d)", g.maxCycles))
		}
		if ctl++; ctl >= ctlEvery {
			ctl = 0
			if g.ctx != nil {
				if err := g.ctx.Err(); err != nil {
					kind := AbortCanceled
					if errors.Is(err, context.DeadlineExceeded) {
						kind = AbortDeadline
					}
					return g.abort(kind, now, err, "")
				}
			}
		}
		if next := g.nextEvent(now); next <= now {
			// Tick: at least one component has due work this cycle.
			// Book the quiet span since the previous tick first — and
			// advance lastTick before any abort can snapshot, so the
			// profiler's Ticked+Skipped invariant holds at every exit
			// without double-booking the span in result().
			g.prof.SkipTo(uint64(g.lastTick), uint64(now))
			g.lastTick = now
			if g.stallWindow > 0 {
				if g.progress != g.progressSeen {
					g.progressSeen = g.progress
					g.lastProgressCycle = now
					g.noProgress = 0
				} else if g.noProgress++; g.noProgress >= g.stallWindow {
					return g.abortStalled(now)
				}
			}
			if g.checkInv && now >= g.invNext {
				g.invNext = now + g.invEvery
				if err := g.checkInvariants(now); err != nil {
					return g.abort(AbortInvariant, now, err, "")
				}
			}
			if g.hb != nil && now >= g.hbNext {
				g.heartbeat(now)
				g.hbNext = now + g.hbEvery
			}
			arrived := g.processArrivals(now)
			attempt := arrived
			if g.dispWake <= now {
				attempt = true
				g.dispWake = smx.NoEvent
			}
			if !attempt && g.injBoundary(now) {
				// A fault window may have cleared this cycle; retry a
				// blocked dispatch even though no wake event fired.
				attempt = true
			}
			hasDisp := false
			placed := 0
			if attempt {
				hasDisp = g.gmu.HasDispatchable()
				if hasDisp {
					placed = g.gmu.Dispatch(now, g.place)
					if placed == g.cfg.CTADispatchRate && g.gmu.HasDispatchable() {
						// Rate-limited with work left: resume next cycle.
						g.wakeDispatch(now + 1)
					}
				}
			}
			if g.prof != nil {
				for i := range g.issued {
					g.issued[i] = false
				}
			}
			for mi, m := range g.smxs {
				if m.NextReady() > now {
					continue
				}
				for si := 0; si < m.Schedulers(); si++ {
					if w := m.Pick(si, now); w != nil {
						g.execute(now, w)
						g.issued[mi] = true
					}
				}
			}
			if g.prof != nil {
				if !attempt {
					// Pure query for attribution only: Dispatch was not
					// consulted, so classify against the live queue state.
					hasDisp = g.gmu.HasDispatchable()
				}
				g.profTick(now, arrived, placed, hasDisp, g.issued)
			}
			g.clock = now + 1
			continue
		} else {
			// Quiescent at now: every component event is in the future.
			// This region runs with all simulated state frozen (certified
			// by spawnvet's skipsafe analyzer) and only advances the clock.
			if next == smx.NoEvent {
				return g.abort(AbortDeadlock, now, nil,
					fmt.Sprintf("%d queued kernels, %d pending CTAs",
						g.gmu.QueuedKernels(), g.gmu.PendingCTAs()))
			}
			if next > g.maxCycles {
				// Clamp so an over-budget jump lands exactly on the abort
				// edge: AbortMaxCycles reports maxCycles+1 and the
				// profiler never books skipped cycles beyond the budget.
				next = g.maxCycles + 1
			}
			if g.engine == EngineStepped && next > now+1 {
				// Reference engine: walk the quiet span one cycle at a
				// time, re-deriving dueness from component state at every
				// cycle instead of trusting the wheel's jump target.
				next = now + 1
			}
			if next <= now {
				g.clock = now + 1
			} else {
				g.clock = next
			}
		}
	}
	if g.checkInv {
		if err := g.checkInvariants(g.clock); err != nil {
			return g.abort(AbortInvariant, g.clock, err, "")
		}
	}
	return g.result(), nil
}
