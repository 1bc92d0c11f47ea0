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
// to the serial result regardless of worker count. Batch-wide settings
// (cancellation, observer, defaults, memoization) live on the Pool; a
// Spec describes one run.
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
//   - Observer callbacks are serialized through a single collector
//     goroutine: they never run concurrently, but with Workers > 1
//     their order follows completion, not submission. Observers must
//     therefore key any output they write by run identity (benchmark,
//     scheme), never by call sequence.
//
// Workers == 1 runs every spec inline on the calling goroutine in
// submission order — bit-for-bit the pre-pool serial path.
type Pool struct {
	// Workers bounds the number of concurrent simulations.
	// 0 means runtime.GOMAXPROCS(0); 1 reproduces the serial path.
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
	// constructs directly. With Workers > 1 it runs on the worker
	// goroutines, so it must touch only the Spec it is handed.
	Defaults func(*Spec)
	// Progress, when non-nil, receives sweep-level progress: one Started
	// event when a worker picks a spec up and one completion event when
	// it finishes. Calls are serialized through the same collector
	// goroutine as Observer, so the callback needs no locking and Done
	// counts are monotone. Specs skipped by batch cancellation report
	// nothing. With Workers > 1 the interleaving of events across specs
	// follows execution, so progress is inherently non-deterministic
	// output — callers must keep it out of result artifacts (stderr
	// heartbeats, status lines).
	Progress func(PoolProgress)
	// Store, when non-nil, memoizes completed runs by their canonical
	// spec hash (see internal/store and memo.go): points whose results
	// are already stored replay instead of re-running, which is what
	// makes an interrupted sweep resumable with byte-identical
	// artifacts. Nil disables memoization.
	Store *store.Store
	// Journal, when non-nil, receives one append per completed sweep
	// point (ok / replayed / failed / quarantined) — the ledger a
	// resumed invocation reads back for progress reporting. Appends are
	// serialized by the journal itself, so workers share it directly.
	Journal *store.Journal
}

// PoolProgress is one sweep-level progress event (see Pool.Progress).
type PoolProgress struct {
	// Done is how many of the batch's specs have completed (success or
	// failure) at the time of the event.
	Done int
	// Total is the batch size.
	Total int
	// Worker identifies the worker goroutine running the spec (0-based;
	// always 0 on the serial path).
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
// and observer: offline specs expand into a serial sweep inside the
// worker (an inner pool inheriting the run context, observer, defaults,
// store and journal — so collector serialization, batch cancellation and
// memoization all reach the candidates), everything else is a single
// memoized run.
func (p *Pool) runAny(ctx context.Context, obs func(*Outcome), spec Spec) (*Outcome, error) {
	if spec.Scheme == SchemeOffline {
		inner := &Pool{Workers: 1, Context: ctx, Observer: obs, Defaults: p.Defaults, Store: p.Store, Journal: p.Journal}
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
// returned. With Workers == 1 this is exactly the serial
// run-until-first-error loop.
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

// runBatch is the engine under Run and Sweep. outs[i] and errs[i]
// always describe specs[i]. When stopOnErr is set, the first error (in
// submission order for the serial path, completion order otherwise)
// cancels the batch and is returned as hard.
func (p *Pool) runBatch(specs []Spec, stopOnErr bool) (outs []*Outcome, errs []error, hard error) {
	outs = make([]*Outcome, len(specs))
	errs = make([]error, len(specs))
	if len(specs) == 0 {
		return outs, errs, nil
	}
	if n := p.workers(); n <= 1 || len(specs) == 1 {
		return p.runSerial(specs, stopOnErr)
	}
	return p.runParallel(specs, stopOnErr)
}

// runSerial executes the batch inline on the calling goroutine: the
// bit-for-bit serial reference path. Observers and progress callbacks
// fire directly, in submission order.
func (p *Pool) runSerial(specs []Spec, stopOnErr bool) (outs []*Outcome, errs []error, hard error) {
	outs = make([]*Outcome, len(specs))
	errs = make([]error, len(specs))
	ctx := p.context()
	done := 0
	for i := range specs {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			if stopOnErr {
				return outs, errs, err
			}
			continue
		}
		if p.Progress != nil {
			p.Progress(PoolProgress{Done: done, Total: len(specs),
				Benchmark: specs[i].Benchmark, Scheme: specs[i].Scheme, Started: true})
		}
		out, err := p.runAny(ctx, p.Observer, specs[i])
		outs[i], errs[i] = out, err
		done++
		if p.Progress != nil {
			p.Progress(PoolProgress{Done: done, Total: len(specs),
				Benchmark: specs[i].Benchmark, Scheme: specs[i].Scheme})
		}
		if err != nil && stopOnErr {
			return outs, errs, err
		}
	}
	return outs, errs, nil
}

// obsEvent carries one completed outcome or one progress update to the
// collector goroutine. Exactly one of (out, prog) is set.
type obsEvent struct {
	out  *Outcome
	prog *PoolProgress
}

// runParallel fans the batch out over min(Workers, len(specs)) worker
// goroutines. Every observer callback is forwarded to one collector
// goroutine, so the observer never runs concurrently with itself.
func (p *Pool) runParallel(specs []Spec, stopOnErr bool) (outs []*Outcome, errs []error, hard error) {
	outs = make([]*Outcome, len(specs))
	errs = make([]error, len(specs))

	n := p.workers()
	if n > len(specs) {
		n = len(specs)
	}
	runCtx, cancel := context.WithCancel(p.context())
	defer cancel()

	obsCh := make(chan obsEvent, n)
	var obs func(*Outcome)
	if p.Observer != nil {
		obs = func(o *Outcome) { obsCh <- obsEvent{out: o} }
	}
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		// The collector owns the completion count: workers report raw
		// events and Done is filled in here, so it is monotone even
		// though workers finish in arbitrary order.
		done := 0
		for e := range obsCh {
			if e.prog != nil {
				pr := *e.prog
				if !pr.Started {
					done++
				}
				pr.Done = done
				p.Progress(pr)
				continue
			}
			p.Observer(e.out)
		}
	}()

	var mu sync.Mutex // guards hard
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
				if p.Progress != nil {
					obsCh <- obsEvent{prog: &PoolProgress{Total: len(specs), Worker: worker,
						Benchmark: s.Benchmark, Scheme: s.Scheme, Started: true}}
				}
				out, err := p.runAny(runCtx, obs, s)
				outs[i], errs[i] = out, err
				if p.Progress != nil {
					obsCh <- obsEvent{prog: &PoolProgress{Total: len(specs), Worker: worker,
						Benchmark: s.Benchmark, Scheme: s.Scheme}}
				}
				if err != nil && stopOnErr {
					mu.Lock()
					if hard == nil {
						hard = err
						cancel()
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(obsCh)
	<-collectorDone
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
// (betterOutcome), so any worker count crowns the serial winner. A
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
	best.Spec.Scheme = SchemeOffline
	best.Failures = failures
	return best, nil
}
