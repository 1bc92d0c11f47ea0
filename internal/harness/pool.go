package harness

import (
	"context"
	"fmt"
	gort "runtime"
	"sync"

	"spawnsim/internal/store"
)

// Pool is the harness's deterministic worker-pool sweep engine and the
// only way a Spec runs. It executes a slice of Specs concurrently and
// assembles the outcomes in submission order, so every CSV, table, and
// best-threshold selection derived from a pool batch is byte-identical
// at any worker count. Batch-wide settings (cancellation, observer,
// defaults, the run cache) live on the Pool; a Spec describes one run.
//
// The determinism contract (DESIGN.md §5):
//
//   - Outcomes are returned indexed by submission position, never by
//     completion order.
//   - Each run is independently deterministic (own simulator, own
//     metrics registry, own fault-plan copy), so reordering execution
//     cannot change any individual Outcome.
//   - Reductions over a batch (Offline-Search's winner, sweep failure
//     lists) fold over the submission order and break ties by value
//     (betterOutcome), not by arrival.
//   - The worker that ran a spec makes that spec's Observer and
//     Progress calls itself, under one lock shared by the whole batch:
//     callbacks never run concurrently, and each returns before its
//     worker touches the Outcome again, but with Workers > 1 their
//     order follows completion, not submission. Observers must
//     therefore key any output they write by run identity (benchmark,
//     scheme), never by call sequence, and must not run specs on their
//     own Pool.
//
// With Workers == 1, one worker goroutine runs the specs one at a time
// in submission order.
type Pool struct {
	// Workers bounds the number of concurrent simulations.
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Context, when non-nil, cancels the whole batch cooperatively;
	// in-flight simulations abort with partial results and queued specs
	// are skipped.
	Context context.Context
	// Observer, when non-nil, receives every completed Outcome (sweep
	// candidates and replayed points included). It forces a fresh
	// metrics registry on runs whose Spec carries none, so the observer
	// always sees a metrics snapshot. Calls are serialized; see the
	// contract above.
	Observer func(*Outcome)
	// Defaults, when non-nil, is applied exactly once to every run (each
	// Offline-Search candidate and the instrumented winner re-run
	// included) before its content address is computed, so process-wide
	// settings (wall-clock deadlines, chaos plans, cycle budgets from
	// command-line flags) reach runs whose Spec the caller never
	// constructs directly. It runs on the worker goroutines, so it must
	// touch only the Spec it is handed.
	Defaults func(*Spec)
	// Progress, when non-nil, receives sweep-level progress: one Started
	// event when a worker picks a spec up and one completion event when
	// it finishes. Calls are serialized under the same batch lock as
	// Observer, so the callback needs no locking and Done counts are
	// monotone. Specs skipped by batch cancellation report nothing.
	// With Workers > 1 the interleaving of events across specs follows
	// execution, so progress is inherently non-deterministic output —
	// callers must keep it out of result artifacts (stderr heartbeats,
	// status lines).
	Progress func(PoolProgress)
	// Store, when non-nil, is the run cache: completed runs are kept by
	// their canonical spec hash (see internal/store and memo.go), and
	// points whose results are already stored replay instead of
	// re-running. A store.Memory spares an invocation simulating a spec
	// twice; a directory store also makes an interrupted sweep
	// resumable with byte-identical artifacts. Nil runs every spec.
	Store *store.Store
}

// PoolProgress is one sweep-level progress event (see Pool.Progress).
type PoolProgress struct {
	// Done is how many of the batch's specs have completed (success or
	// failure) at the time of the event.
	Done int
	// Total is the batch size.
	Total int
	// Worker identifies the worker goroutine running the spec (0-based;
	// always 0 with Workers == 1).
	Worker int
	// Benchmark and Scheme identify the spec.
	Benchmark string
	Scheme    string
	// Started is true for pick-up events, false for completions.
	Started bool
}

func (p *Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return gort.GOMAXPROCS(0)
}

func (p *Pool) context() context.Context {
	if p.Context != nil {
		return p.Context
	}
	return context.Background()
}

// runAny dispatches one spec of a batch under the batch's run context
// and locked observer: offline specs expand into a serial sweep inside
// the worker (an inner pool inheriting the run context, observer,
// defaults and store — so the batch lock, batch cancellation and
// memoization all reach the candidates), everything else is a single
// memoized run.
func (p *Pool) runAny(ctx context.Context, obs func(*Outcome), spec Spec) (*Outcome, error) {
	if spec.Scheme == SchemeOffline {
		inner := &Pool{Workers: 1, Context: ctx, Observer: obs, Defaults: p.Defaults, Store: p.Store}
		return inner.offlineSearch(spec)
	}
	return p.runMemo(ctx, obs, spec)
}

// RunSpec executes one spec through the pool: a plain spec runs once;
// an offline spec fans its threshold sweep out across the workers.
func (p *Pool) RunSpec(spec Spec) (*Outcome, error) {
	if spec.Scheme == SchemeOffline {
		return p.offlineSearch(spec)
	}
	return p.runMemo(p.context(), p.Observer, spec)
}

// Run executes the specs and returns their outcomes in submission
// order, failing fast: the first hard error cancels the remaining
// workers (in-flight runs abort, queued specs are skipped) and is
// returned. With Workers == 1 no spec after the failing one starts.
func (p *Pool) Run(specs []Spec) ([]*Outcome, error) {
	outs, _, hard := p.runBatch(specs, true)
	if hard != nil {
		return nil, hard
	}
	return outs, nil
}

// Sweep executes the specs and returns outcomes and errors in
// submission order. Individual failures do not cancel the batch — this
// is the mode Offline-Search uses, where a failed candidate is recorded
// and skipped. Only the pool's Context cancels outstanding work.
func (p *Pool) Sweep(specs []Spec) ([]*Outcome, []error) {
	outs, errs, _ := p.runBatch(specs, false)
	return outs, errs
}

// runBatch is the engine under Run and Sweep: it fans the batch out
// over min(Workers, len(specs)) worker goroutines, each of which makes
// its own specs' Observer and Progress calls under the batch lock, so
// the callbacks never run concurrently. outs[i] and errs[i] always
// describe specs[i]. When stopOnErr is set, the first error in
// completion order cancels the batch and is returned as hard; with one
// worker, that is the first in submission order, and nothing after it
// starts.
func (p *Pool) runBatch(specs []Spec, stopOnErr bool) (outs []*Outcome, errs []error, hard error) {
	outs = make([]*Outcome, len(specs))
	errs = make([]error, len(specs))
	if len(specs) == 0 {
		return outs, errs, nil
	}

	n := p.workers()
	if n > len(specs) {
		n = len(specs)
	}
	runCtx, cancel := context.WithCancel(p.context())
	defer cancel()

	var mu sync.Mutex // serializes Observer and Progress; guards done and hard
	done := 0
	var obs func(*Outcome)
	if p.Observer != nil {
		obs = func(o *Outcome) {
			mu.Lock()
			defer mu.Unlock()
			p.Observer(o)
		}
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				if err := runCtx.Err(); err != nil {
					errs[i] = err // indices are handed out once: no write race
					continue
				}
				s := specs[i]
				pr := PoolProgress{Total: len(specs), Worker: worker, Benchmark: s.Benchmark, Scheme: s.Scheme}
				if p.Progress != nil {
					mu.Lock()
					pr.Done, pr.Started = done, true
					p.Progress(pr)
					mu.Unlock()
				}
				out, err := p.runAny(runCtx, obs, s)
				outs[i], errs[i] = out, err
				mu.Lock()
				if p.Progress != nil {
					done++
					pr.Done, pr.Started = done, false
					p.Progress(pr)
				}
				if err != nil && stopOnErr && hard == nil {
					hard = err
					cancel()
				}
				mu.Unlock()
			}
		}(w)
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if stopOnErr && hard == nil {
		// External cancellation can skip queued specs without any run
		// reporting the triggering error; surface the first recorded one
		// so a fail-fast batch never reports success with holes in it.
		for _, err := range errs {
			if err != nil {
				hard = err
				break
			}
		}
	}
	return outs, errs, hard
}

// offlineSearch is the pool-backed Offline-Search, reached through
// RunSpec or a batch carrying a SchemeOffline spec: the Figure 5
// threshold candidates run across the workers, and the winner is
// reduced over the submission order with a deterministic tie-break
// (betterOutcome), so any worker count crowns the same winner. A
// failing candidate is recorded in the winning Outcome's Failures list
// (submission order) rather than aborting the sweep; the search errors
// only when every candidate fails.
func (p *Pool) offlineSearch(spec Spec) (*Outcome, error) {
	app, err := spec.buildApp()
	if err != nil {
		return nil, err
	}
	ts := SweepThresholds(app)
	candidates := make([]Spec, len(ts))
	for i, t := range ts {
		s := spec
		s.Scheme = fmt.Sprintf("threshold:%d", t)
		// Observability attaches only to the winning run below, not to
		// every sweep candidate: sinks would interleave unrelated runs
		// and the registry would keep only the last candidate anyway.
		s.Metrics, s.TraceSinks = nil, nil
		candidates[i] = s
	}
	outs, errs := p.Sweep(candidates)

	var best *Outcome
	var failures []RunFailure
	for i := range candidates {
		if errs[i] != nil {
			failures = append(failures, RunFailure{Scheme: candidates[i].Scheme, Err: errs[i]})
			continue
		}
		if outs[i].Quarantined() {
			// A tolerant candidate that exhausted its retry budget: its
			// partial result must not compete for the win (an aborted run
			// can have deceptively few cycles), but the sweep records it.
			for _, f := range outs[i].Failures {
				if f.Quarantined {
					failures = append(failures, RunFailure{
						Scheme: candidates[i].Scheme, Err: f.Err,
						Quarantined: true, Attempts: f.Attempts,
					})
				}
			}
			continue
		}
		if betterOutcome(outs[i], best) {
			best = outs[i]
		}
	}
	if best == nil {
		if len(failures) > 0 {
			return nil, fmt.Errorf("harness: offline search for %s: all %d candidates failed (first: %w)",
				spec.Benchmark, len(failures), failures[0].Err)
		}
		return nil, fmt.Errorf("harness: offline search found no candidates for %s", spec.Benchmark)
	}
	if spec.Metrics != nil || len(spec.TraceSinks) > 0 {
		s := spec
		s.Scheme = fmt.Sprintf("threshold:%d", best.Threshold)
		out, err := p.runMemo(p.context(), p.Observer, s)
		if err != nil {
			// The instrumented re-run of the winner failed (possible under
			// chaos); keep the uninstrumented result and record it.
			failures = append(failures, RunFailure{Scheme: s.Scheme, Err: err})
		} else {
			best = out
		}
	}
	// Relabel a copy: the observer was handed the candidate itself and
	// may have kept it.
	won := *best
	won.Spec.Scheme = SchemeOffline
	won.Failures = failures
	return &won, nil
}
