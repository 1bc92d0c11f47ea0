// Package harness runs benchmarks under the paper's execution schemes
// and regenerates every table and figure of the evaluation section
// (see DESIGN.md §3 for the experiment index).
package harness

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"spawnsim/internal/config"
	spawn "spawnsim/internal/core"
	"spawnsim/internal/dtbl"
	"spawnsim/internal/faults"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

// Scheme names accepted by Run.
const (
	SchemeFlat     = "flat"     // non-DP baseline (decline every launch)
	SchemeBaseline = "baseline" // Baseline-DP: the app's default THRESHOLD
	SchemeSpawn    = "spawn"    // the paper's controller
	SchemeDTBL     = "dtbl"     // Wang et al. comparator
	SchemeOffline  = "offline"  // best static THRESHOLD (exhaustive sweep)
	// "threshold:N" runs a specific static THRESHOLD N.
)

// Spec describes one simulation run. Batch-wide settings — the
// cancellation context, the observer, and the defaults hook — live on
// the Pool that runs it.
type Spec struct {
	Benchmark string
	Scheme    string
	// MakePolicy, when non-nil, builds the launch policy and bypasses
	// Scheme resolution. It is called once per attempt, so retried runs
	// start from a fresh policy instead of one carrying state from the
	// failed attempt. The Pool uses this for ablation variants.
	MakePolicy func(config.GPU) kernel.Policy
	// PolicyTag names the MakePolicy closure for content-addressing: two
	// specs with the same tag (and otherwise equal resolved fields) must
	// build behaviorally identical policies. Specs carrying a MakePolicy
	// without a tag are uncacheable — the harness cannot hash a closure —
	// so they always run live and are never stored or replayed.
	PolicyTag string
	// ChildCTASize overrides the app's child CTA dimension (Figure 7).
	ChildCTASize int
	// StreamMode selects SWQ assignment (Figure 8).
	StreamMode kernel.StreamMode
	// Engine selects the simulator's scheduling core (sim.Options.Engine):
	// the event-wheel (default) or the cycle-stepped reference loop. The
	// two engines produce byte-identical Results, traces, metrics, and
	// profile reports — Engine is a how-it-runs knob, not a what-it-
	// computes knob — so it is deliberately absent from the spec's
	// content address and a stored outcome replays for either engine.
	Engine sim.Engine
	// SampleInterval enables time series when non-zero.
	SampleInterval uint64
	// TraceEvents, when non-zero, records the last N simulator events
	// into Outcome.Trace.
	TraceEvents int
	// TraceSinks receive the full event stream (JSONL, Perfetto, ...).
	// Unlike the TraceEvents ring these see every event, and the caller
	// keeps ownership: the harness never closes them.
	TraceSinks []trace.Sink
	// Metrics, when non-nil, is instrumented into the simulator and
	// snapshotted into Outcome.Metrics after the run. A registry must
	// not be shared between specs that run concurrently in a Pool.
	Metrics *metrics.Registry
	// Heartbeat, when non-nil, receives periodic progress callbacks
	// every HeartbeatEvery cycles (simulator default when zero).
	Heartbeat      func(sim.Progress)
	HeartbeatEvery uint64
	// Config overrides the GPU configuration (zero value = K20m).
	Config *config.GPU
	// Deadline, when non-zero, bounds each attempt's wall-clock time
	// (a fresh context.WithTimeout per attempt).
	Deadline time.Duration
	// MaxCycles overrides the simulator's cycle budget (0 = default).
	MaxCycles uint64
	// CheckInvariants enables the simulator's conservation-law auditor.
	CheckInvariants bool
	// Profile, when non-nil, enables the cycle-attribution profiler
	// (internal/profile) for this run: per-component activity counters,
	// idle-run-length histograms, kernel-lifecycle spans, and a sampled
	// queue/occupancy timeline, snapshotted into Outcome.Profile. The
	// profiler observes the run without altering any other artifact —
	// Result, traces, and metrics snapshots stay byte-identical whether
	// it is on or off. Each attempt gets a fresh profiler, so a retried
	// run's report covers only the attempt that produced its Result.
	Profile *profile.Options
	// FaultPlan, when non-nil and non-zero, runs the simulation under
	// deterministic chaos injection (see internal/faults). The harness
	// never mutates the caller's plan: every attempt works on its own
	// copy, and the Outcome stores a private copy too.
	FaultPlan *faults.Plan
	// Retries is how many additional attempts a transient failure —
	// an abort or recovered panic under an active fault plan — gets,
	// each under a seed derived from the plan's (attempt 0 keeps the
	// plan's own seed, so unretried runs stay exactly reproducible).
	Retries int
	// RetryBackoff, when non-zero, sleeps before each retry attempt with
	// capped exponential growth (base, 2x, 4x, ... capped at 16x). The
	// sleep is purely harness-side wall time: the derived-seed schedule
	// and every simulated artifact stay byte-identical with or without
	// backoff. Canceling the Pool's Context cuts the sleep short.
	RetryBackoff time.Duration
	// Tolerate, when set, degrades gracefully once the retry budget is
	// exhausted (or the failure is permanent): instead of failing the
	// run, the last attempt's partial Outcome is returned with the
	// failure quarantined into Outcome.Failures, so a sweep keeps its
	// shape with the sick point marked rather than aborting. Runs that
	// produce no partial Outcome at all (e.g. spec validation errors)
	// still fail.
	Tolerate bool
	// StallWindow, when non-zero, arms the simulator's cycle-progress
	// watchdog (sim.Options.StallWindow): a run making no forward
	// progress for this many scheduler steps aborts with an
	// AbortStalled carrying a machine snapshot, instead of spinning to
	// its cycle budget.
	StallWindow uint64
	// StallTimeout, when non-zero, arms the harness's wall-clock stall
	// guard: if the simulator delivers no heartbeat for this long in
	// wall time — the process is wedged below the cycle loop, or the
	// run is pathologically slow — the run is canceled and the abort is
	// reported as AbortStalled. Complements StallWindow, which watches
	// simulated progress and cannot see wall-clock hangs.
	StallTimeout time.Duration
}

// Outcome bundles a run's result with its context.
type Outcome struct {
	Spec      Spec
	Threshold int // static threshold used, if any (-1 otherwise)
	Result    *sim.Result
	// TotalWork is the app's full workload metric (Figure 5 denominator).
	TotalWork int64
	// Trace holds recorded simulator events when Spec.TraceEvents > 0.
	Trace *trace.Ring
	// Metrics is the end-of-run registry snapshot when metrics were
	// enabled (Spec.Metrics or a Pool.Observer), nil otherwise.
	Metrics *metrics.Snapshot
	// Profile is the cycle-attribution report when profiling was enabled
	// (Spec.Profile), nil otherwise. Aborted runs carry a partial report
	// covering the cycles that did execute.
	Profile *profile.Report
	// FaultsInjected counts the chaos injections of the run (0 when no
	// fault plan was active).
	FaultsInjected uint64
	// Failures lists runs a sweep skipped after they failed
	// (Offline-Search candidates) and quarantined failures of tolerant
	// runs (Spec.Tolerate); empty otherwise.
	Failures []RunFailure
	// Attempts is how many simulation attempts produced this outcome
	// (1 for an unretried run, 0 for an outcome replayed from the
	// result store).
	Attempts int
	// Replayed marks an outcome served from the result store instead of
	// a live simulation.
	Replayed bool
}

// Quarantined reports whether this outcome carries a quarantined
// failure: the run (or, for sweeps, this winning candidate) exhausted
// its retry budget under Spec.Tolerate and returned its partial result
// instead of an error. Quarantined outcomes are excluded from sweep
// winner selection and never enter the result store.
func (o *Outcome) Quarantined() bool {
	for _, f := range o.Failures {
		if f.Quarantined {
			return true
		}
	}
	return false
}

// RunFailure records one failed run inside a sweep.
type RunFailure struct {
	// Scheme is the candidate that failed (e.g. "threshold:64").
	Scheme string
	Err    error
	// Quarantined marks a tolerant run's own failure (Spec.Tolerate):
	// the outcome carrying this record is the failing run's partial
	// result, not a healthy sweep winner.
	Quarantined bool
	// Attempts is how many attempts the failing run consumed.
	Attempts int
}

func (s Spec) config() config.GPU {
	if s.Config != nil {
		return *s.Config
	}
	return config.K20m()
}

// owned returns the spec with its pointer fields (Config, FaultPlan,
// Profile) replaced by private copies, so an Outcome records the run as
// it was configured even if the caller mutates its structs afterwards —
// and so the harness can never alias a caller's *faults.Plan from a
// stored Outcome. Metrics and TraceSinks stay shared: the caller owns
// those.
func (s Spec) owned() Spec {
	if s.Config != nil {
		cfg := *s.Config
		s.Config = &cfg
	}
	if s.FaultPlan != nil {
		p := *s.FaultPlan
		s.FaultPlan = &p
	}
	if s.Profile != nil {
		po := *s.Profile
		s.Profile = &po
	}
	return s
}

// buildApp materializes the benchmark's app with the spec's overrides.
func (s Spec) buildApp() (*workloads.App, error) {
	b, err := workloads.ByName(s.Benchmark)
	if err != nil {
		return nil, err
	}
	app := b.Make()
	if s.ChildCTASize > 0 {
		app.ChildCTASize = s.ChildCTASize
	}
	if err := app.Normalize(); err != nil {
		return nil, err
	}
	return app, nil
}

// policyFor resolves the scheme to a launch policy. Threshold-bearing
// schemes return the threshold used (or -1).
func policyFor(scheme string, app *workloads.App, cfg config.GPU) (kernel.Policy, int, error) {
	switch {
	case scheme == SchemeFlat:
		return runtime.Flat{}, -1, nil
	case scheme == SchemeBaseline:
		return runtime.Threshold{T: app.DefaultThreshold}, app.DefaultThreshold, nil
	case scheme == SchemeSpawn:
		return spawn.New(cfg), -1, nil
	case scheme == SchemeDTBL:
		return dtbl.New(app.DefaultThreshold), app.DefaultThreshold, nil
	case strings.HasPrefix(scheme, "threshold:"):
		t, err := strconv.Atoi(strings.TrimPrefix(scheme, "threshold:"))
		if err != nil {
			return nil, 0, fmt.Errorf("harness: bad scheme %q: %w", scheme, err)
		}
		return runtime.Threshold{T: t}, t, nil
	default:
		return nil, 0, fmt.Errorf("harness: unknown scheme %q", scheme)
	}
}

// Run executes one simulation per the spec on a single-worker Pool with
// no observer, defaults, or store.
func Run(spec Spec) (*Outcome, error) {
	return (&Pool{Workers: 1}).RunSpec(spec)
}

// runSpec is the single-run engine under the Pool: it resolves the
// policy (building a fresh instance per attempt unless the caller
// pinned one) and drives the retry loop under the run context, handing
// every successful attempt to obs. The spec arrives with the pool's
// defaults already applied.
func runSpec(ctx context.Context, obs func(*Outcome), spec Spec) (*Outcome, error) {
	app, err := spec.buildApp()
	if err != nil {
		return nil, err
	}
	cfg := spec.config()
	makePol := spec.MakePolicy
	thr := -1
	if makePol == nil {
		// Validate the scheme (and learn its threshold) once up front;
		// the per-attempt factory re-resolves so retries get a policy
		// with no state left over from the failed attempt.
		_, t, perr := policyFor(spec.Scheme, app, cfg)
		if perr != nil {
			return nil, perr
		}
		thr = t
		scheme := spec.Scheme
		makePol = func(cfg config.GPU) kernel.Policy {
			pol, _, _ := policyFor(scheme, app, cfg)
			return pol
		}
	}
	def, err := workloads.ParentDef(app)
	if err != nil {
		return nil, err
	}
	var lastOut *Outcome
	var lastErr error
	for attempt := 0; attempt <= spec.Retries; attempt++ {
		if attempt > 0 {
			// Backoff is pure wall time between attempts; the derived-seed
			// schedule below is a function of the attempt number alone, so
			// sleeping (or not) never changes what any attempt simulates.
			sleepBackoff(ctx, spec.RetryBackoff, attempt)
		}
		out, err := runOnce(ctx, obs, spec, cfg, makePol(cfg), app, def, attempt)
		if out != nil {
			out.Attempts = attempt + 1
			if thr >= 0 {
				out.Threshold = thr
			}
		}
		if err == nil {
			return out, nil
		}
		lastOut, lastErr = out, err
		if !transientErr(ctx, &spec, err) {
			break
		}
	}
	if spec.Tolerate && lastOut != nil {
		// Budget exhausted (or the failure was permanent) under a tolerant
		// spec: quarantine the failure into the partial outcome instead of
		// failing the sweep point. The caller sees a nil error; the
		// quarantine record carries what happened.
		lastOut.Failures = append(lastOut.Failures, RunFailure{
			Scheme:      failureLabel(&spec),
			Err:         lastErr,
			Quarantined: true,
			Attempts:    lastOut.Attempts,
		})
		return lastOut, nil
	}
	return lastOut, lastErr
}

// failureLabel names a run in failure records: the scheme when the spec
// has one, the policy tag for tagged custom policies, else a fixed
// placeholder.
func failureLabel(s *Spec) string {
	switch {
	case s.Scheme != "":
		return s.Scheme
	case s.PolicyTag != "":
		return s.PolicyTag
	default:
		return "custom-policy"
	}
}

// retrySeed derives the attempt-specific fault seed. Attempt 0 keeps
// the plan's own seed so unretried runs reproduce exactly.
func retrySeed(seed uint64, attempt int) uint64 {
	return seed + uint64(attempt)*0x9e3779b97f4a7c15
}

// runOnce performs one simulation attempt, recovering engine panics
// (invariant violations and any other programming error surfacing
// mid-run) into returned errors so a sweep can skip the run. A non-nil
// obs forces a metrics registry when the spec carries none and receives
// the completed Outcome.
func runOnce(ctx context.Context, obs func(*Outcome), spec Spec, cfg config.GPU, pol kernel.Policy, app *workloads.App, def *kernel.Def, attempt int) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			if e, ok := r.(error); ok {
				err = fmt.Errorf("harness: %s/%s: recovered panic: %w", spec.Benchmark, pol.Name(), e)
			} else {
				err = fmt.Errorf("harness: %s/%s: recovered panic: %v", spec.Benchmark, pol.Name(), r)
			}
		}
	}()
	var inj *faults.Injector
	if spec.FaultPlan != nil && !spec.FaultPlan.Zero() {
		// Deep-copy the plan for this attempt: the retry-seed derivation
		// must never write through the caller's *faults.Plan.
		p := *spec.FaultPlan
		p.Seed = retrySeed(p.Seed, attempt)
		if inj, err = faults.New(p); err != nil {
			return nil, err
		}
	}
	sinks := spec.TraceSinks
	var ring *trace.Ring
	if spec.TraceEvents > 0 {
		ring = trace.New(spec.TraceEvents)
		sinks = append([]trace.Sink{ring}, sinks...)
	}
	reg := spec.Metrics
	if reg == nil && obs != nil {
		reg = metrics.NewRegistry()
	}
	var prof *profile.Profile
	if spec.Profile != nil {
		prof = profile.New(cfg.NumSMX, *spec.Profile)
	}
	if spec.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Deadline)
		defer cancel()
	}
	ctx, guard := armStallGuard(ctx, &spec)
	defer guard.stop()
	g, err := sim.NewChecked(sim.Options{
		Config:          cfg,
		Policy:          pol,
		StreamMode:      spec.StreamMode,
		Engine:          spec.Engine,
		SampleInterval:  kernel.Cycle(spec.SampleInterval),
		MaxCycles:       kernel.Cycle(spec.MaxCycles),
		StallWindow:     kernel.Cycle(spec.StallWindow),
		Sinks:           sinks,
		Metrics:         reg,
		Profile:         prof,
		Heartbeat:       spec.Heartbeat,
		HeartbeatEvery:  kernel.Cycle(spec.HeartbeatEvery),
		Faults:          inj,
		CheckInvariants: spec.CheckInvariants,
		Context:         ctx,
	})
	if err != nil {
		return nil, err
	}
	g.LaunchHost(def)
	res, runErr := g.Run()
	runErr = guard.rewrap(runErr)
	if runErr != nil {
		err = fmt.Errorf("harness: %s/%s: %w", spec.Benchmark, pol.Name(), runErr)
		if res == nil {
			return nil, err
		}
	}
	out = &Outcome{
		Spec:           spec.owned(),
		Threshold:      -1,
		Result:         res,
		TotalWork:      app.TotalWork(),
		Trace:          ring,
		FaultsInjected: inj.TotalInjected(),
	}
	if reg != nil {
		snap := reg.Snapshot(uint64(res.Cycles))
		out.Metrics = &snap
	}
	if prof != nil {
		// Assigned before the abort return below, so a partial run still
		// carries the profile of the cycles it did execute.
		out.Profile = prof.Report()
	}
	if runErr != nil {
		return out, err
	}
	if obs != nil {
		obs(out)
	}
	return out, nil
}

// OffloadTargets are the Figure 5 sweep points (fractions of the
// workload offloaded to children).
var OffloadTargets = []float64{0.01, 0.05, 0.13, 0.28, 0.35, 0.53, 0.77, 0.91, 1.0}

// SweepThresholds returns the static THRESHOLD values that hit the
// Figure 5 offload targets for this benchmark (deduplicated, descending
// offload order).
func SweepThresholds(app *workloads.App) []int {
	seen := map[int]bool{}
	var out []int
	for i := len(OffloadTargets) - 1; i >= 0; i-- {
		t := app.ThresholdForOffload(OffloadTargets[i])
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// betterOutcome reports whether a beats b as the Offline-Search winner.
// Fewer cycles win; on exactly equal cycles the lower static threshold
// wins, so serial and parallel sweeps — whatever order their candidates
// complete in — always crown the same configuration.
func betterOutcome(a, b *Outcome) bool {
	if b == nil {
		return true
	}
	if a.Result.Cycles != b.Result.Cycles {
		return a.Result.Cycles < b.Result.Cycles
	}
	return a.Threshold < b.Threshold
}
