package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spawnsim/internal/faults"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/store"
	"spawnsim/internal/trace"
)

// poolOfflineArtifacts runs a chaos-enabled, fully instrumented
// Offline-Search through a pool of the given width and renders every
// artifact a sweep harness would write to disk: the winning Result as
// JSON, the winner's metrics snapshot (CSV + JSON), the winner's trace
// stream, the recorded failure list, and the per-candidate observer
// snapshots keyed by scheme.
func poolOfflineArtifacts(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	plan := faults.Mild(3)
	var traceBuf bytes.Buffer
	sink := trace.NewJSONL(&traceBuf)
	reg := metrics.NewRegistry()

	// The pool serializes observer callbacks, so this map needs no lock
	// even at Workers > 1; entries are keyed by run identity.
	observed := map[string][]byte{}
	p := &Pool{
		Workers: workers,
		Observer: func(o *Outcome) {
			var b bytes.Buffer
			if err := o.Metrics.WriteCSV(&b); err != nil {
				t.Errorf("observer metrics CSV: %v", err)
			}
			observed[o.Spec.Scheme] = b.Bytes()
		},
	}
	out, err := p.RunSpec(Spec{
		Benchmark:       "MM-small",
		Scheme:          SchemeOffline,
		Metrics:         reg,
		TraceSinks:      []trace.Sink{sink},
		FaultPlan:       &plan,
		Retries:         2,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatalf("RunSpec (workers=%d): %v", workers, err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("closing trace sink: %v", err)
	}
	if out.Metrics == nil {
		t.Fatal("no metrics snapshot on instrumented sweep outcome")
	}

	arts := map[string][]byte{}
	oj, err := json.Marshal(out.Result)
	if err != nil {
		t.Fatalf("marshaling outcome result: %v", err)
	}
	arts["outcome.json"] = oj
	var csvBuf, jsonBuf bytes.Buffer
	if err := out.Metrics.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("metrics CSV: %v", err)
	}
	if err := out.Metrics.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	arts["metrics.csv"] = csvBuf.Bytes()
	arts["metrics.json"] = jsonBuf.Bytes()
	arts["trace.jsonl"] = traceBuf.Bytes()
	var fails strings.Builder
	for _, f := range out.Failures {
		fmt.Fprintf(&fails, "%s: %v\n", f.Scheme, f.Err)
	}
	arts["failures.txt"] = []byte(fails.String())
	for scheme, snap := range observed {
		arts["observed-"+scheme+".csv"] = snap
	}
	return arts
}

// TestPoolOfflineSearchDeterministicAcrossWorkers is the pool
// determinism suite's sweep half: a chaos-enabled Offline-Search must
// produce byte-identical artifacts at Workers=1 and Workers=8.
func TestPoolOfflineSearchDeterministicAcrossWorkers(t *testing.T) {
	serial := poolOfflineArtifacts(t, 1)
	parallel := poolOfflineArtifacts(t, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("artifact sets differ: %d serial vs %d parallel", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Errorf("parallel run missing artifact %s", name)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("artifact %s differs between Workers=1 and Workers=8:\nserial:   %.200s\nparallel: %.200s",
				name, want, got)
		}
	}
}

// fig5CSV regenerates the MM-small Figure 5 sweep at the given pool
// width and renders its CSV.
func fig5CSV(t *testing.T, workers int) []byte {
	t.Helper()
	rs, err := (&Pool{Workers: workers}).Fig5("MM-small")
	if err != nil {
		t.Fatalf("Fig5 (workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := rs[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPoolFig5DeterministicAcrossWorkers is the suite's figure half:
// the Figure 5 CSV must be byte-identical at Workers=1 and Workers=8.
func TestPoolFig5DeterministicAcrossWorkers(t *testing.T) {
	serial := fig5CSV(t, 1)
	parallel := fig5CSV(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("Fig5 CSV differs between Workers=1 and Workers=8:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestPoolPreservesSubmissionOrder checks that outcomes land at their
// submission index no matter which worker finishes first.
func TestPoolPreservesSubmissionOrder(t *testing.T) {
	schemes := []string{SchemeFlat, SchemeBaseline, SchemeSpawn, SchemeDTBL, "threshold:500", "threshold:16"}
	specs := make([]Spec, len(schemes))
	for i, s := range schemes {
		specs[i] = Spec{Benchmark: "MM-small", Scheme: s}
	}
	outs, err := (&Pool{Workers: 4}).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, scheme := range schemes {
		if outs[i] == nil {
			t.Fatalf("outcome %d missing", i)
		}
		if got := outs[i].Spec.Scheme; got != scheme {
			t.Errorf("outs[%d].Spec.Scheme = %q, want %q", i, got, scheme)
		}
	}
}

// TestPoolObserverSerialized asserts the batch-lock contract: observer
// callbacks never run concurrently, and every completed run is
// observed exactly once.
func TestPoolObserverSerialized(t *testing.T) {
	var active, calls, overlaps int32
	p := &Pool{
		Workers: 8,
		Observer: func(o *Outcome) {
			if atomic.AddInt32(&active, 1) != 1 {
				atomic.AddInt32(&overlaps, 1)
			}
			atomic.AddInt32(&calls, 1)
			atomic.AddInt32(&active, -1)
		},
	}
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Benchmark: "MM-small", Scheme: SchemeFlat}
	}
	if _, err := p.Run(specs); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&calls); got != int32(len(specs)) {
		t.Errorf("observer saw %d runs, want %d", got, len(specs))
	}
	if got := atomic.LoadInt32(&overlaps); got != 0 {
		t.Errorf("observer ran concurrently %d times; the pool must serialize callbacks", got)
	}
}

// TestPoolObserverReturnsBeforeNextSpec: the worker that ran a spec
// observes it before it picks up the next one, so on a one-worker pool
// the Observer of run k has seen Defaults fire exactly k+1 times.
func TestPoolObserverReturnsBeforeNextSpec(t *testing.T) {
	var defaults atomic.Int32
	var seen []int32
	p := &Pool{
		Workers:  1,
		Defaults: func(*Spec) { defaults.Add(1) },
		Observer: func(*Outcome) { seen = append(seen, defaults.Load()) },
	}
	schemes := []string{SchemeFlat, SchemeBaseline, SchemeSpawn, SchemeDTBL, "threshold:16"}
	specs := make([]Spec, len(schemes))
	for i, s := range schemes {
		specs[i] = Spec{Benchmark: "MM-small", Scheme: s}
	}
	if _, err := p.Run(specs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(specs) {
		t.Fatalf("observer saw %d runs, want %d", len(seen), len(specs))
	}
	for k, n := range seen {
		if n != int32(k+1) {
			t.Errorf("observer of run %d saw Defaults fire %d times, want %d", k, n, k+1)
		}
	}
}

// TestPoolObserverSeesFinishedOutcomes: a 4-worker batch of an offline
// spec, a retried chaos spec and plain specs. The Observer reads every
// field a worker sets and marshals the Result, Metrics and Profile, and
// keeps the outcome; after the batch each kept outcome must read as it
// did when observed. A worker that wrote an Outcome after handing it to
// the observer fails this test (and, with the write on another
// goroutine, the race detector).
func TestPoolObserverSeesFinishedOutcomes(t *testing.T) {
	type view struct {
		scheme                        string
		threshold, attempts, failures int
		blob                          string
	}
	look := func(o *Outcome) view {
		b, err := json.Marshal([]any{o.Result, o.Metrics, o.Profile})
		if err != nil {
			t.Errorf("marshaling an observed outcome: %v", err)
		}
		return view{o.Spec.Scheme, o.Threshold, o.Attempts, len(o.Failures), string(b)}
	}
	var kept []*Outcome
	var views []view
	p := &Pool{Workers: 4, Observer: func(o *Outcome) {
		kept = append(kept, o)
		views = append(views, look(o))
	}}
	plan := faults.Mild(11)
	specs := []Spec{
		{Benchmark: "MM-small", Scheme: SchemeOffline},
		{Benchmark: "MM-small", Scheme: SchemeSpawn, FaultPlan: &plan, Retries: 2},
		{Benchmark: "MM-small", Scheme: SchemeBaseline},
		{Benchmark: "MM-small", Scheme: SchemeDTBL},
	}
	for i := range specs {
		specs[i].Profile = &profile.Options{}
	}
	if _, err := p.Run(specs); err != nil {
		t.Fatal(err)
	}
	app, err := Spec{Benchmark: "MM-small"}.buildApp()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(SweepThresholds(app)) + len(specs) - 1; len(kept) != want {
		t.Fatalf("observer saw %d outcomes, want %d", len(kept), want)
	}
	for i, o := range kept {
		v := views[i]
		if got := look(o); got != v {
			t.Errorf("outcome %d (%s) changed after it was observed", i, v.scheme)
		}
		if v.scheme == SchemeOffline {
			t.Errorf("outcome %d was observed under the offline label", i)
		}
		if th, ok := strings.CutPrefix(v.scheme, "threshold:"); ok && th != fmt.Sprint(v.threshold) {
			t.Errorf("candidate %s observed with threshold %d", v.scheme, v.threshold)
		}
		if v.attempts < 1 || v.failures != 0 || o.Metrics == nil || o.Profile == nil {
			t.Errorf("outcome %d (%s) observed with %d attempts, %d failures, metrics %v, profile %v",
				i, v.scheme, v.attempts, v.failures, o.Metrics != nil, o.Profile != nil)
		}
	}
}

// TestPoolFirstHardErrorCancelsBatch checks fail-fast semantics: a bad
// spec in the middle of a batch surfaces its error, and with Workers=1
// nothing after the failing index runs (the serial contract).
func TestPoolFirstHardErrorCancelsBatch(t *testing.T) {
	var started int32
	counting := func(s *Spec) { atomic.AddInt32(&started, 1) }
	specs := []Spec{
		{Benchmark: "MM-small", Scheme: SchemeFlat},
		{Benchmark: "no-such-benchmark", Scheme: SchemeFlat},
		{Benchmark: "MM-small", Scheme: SchemeBaseline},
		{Benchmark: "MM-small", Scheme: SchemeSpawn},
	}

	_, err := (&Pool{Workers: 1, Defaults: counting}).Run(specs)
	if err == nil || !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Fatalf("serial batch error = %v, want unknown-benchmark failure", err)
	}
	if got := atomic.LoadInt32(&started); got != 2 {
		t.Errorf("serial batch applied defaults to %d specs, want 2 (stop at first error)", got)
	}

	outs, err := (&Pool{Workers: 4}).Run(specs)
	if err == nil {
		t.Fatal("parallel batch with a poisoned spec reported success")
	}
	if outs != nil {
		t.Errorf("failed batch returned outcomes: %v", outs)
	}
}

// TestPoolConcurrentFailuresFailFast fails two specs at the same time
// on different workers: a barrier in the Defaults hook holds each worker
// until both have started, so both failures reach the batch's
// first-error slot concurrently. The batch must report one of the two
// errors and no outcomes; under -race it also proves that slot is
// guarded.
func TestPoolConcurrentFailuresFailFast(t *testing.T) {
	var started sync.WaitGroup
	started.Add(2)
	barrier := func(*Spec) {
		started.Done()
		started.Wait()
	}
	specs := []Spec{
		{Benchmark: "no-such-benchmark-a", Scheme: SchemeFlat},
		{Benchmark: "no-such-benchmark-b", Scheme: SchemeFlat},
	}
	outs, err := (&Pool{Workers: 2, Defaults: barrier}).Run(specs)
	if err == nil || !strings.Contains(err.Error(), "no-such-benchmark-") {
		t.Fatalf("batch error = %v, want one of the unknown-benchmark failures", err)
	}
	if outs != nil {
		t.Errorf("failed batch returned outcomes: %v", outs)
	}
}

// TestPoolCancellationShutsDownPromptly cancels a batch from its first
// observer callback and asserts the remaining work is abandoned: the
// batch errors, and at least one queued spec was skipped rather than
// simulated to completion.
func TestPoolCancellationShutsDownPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed int32
	p := &Pool{
		Workers: 2,
		Context: ctx,
		Observer: func(o *Outcome) {
			atomic.AddInt32(&completed, 1)
			cancel() // first completed run pulls the plug on the batch
		},
	}
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Benchmark: "BFS-graph500", Scheme: SchemeFlat}
	}
	outs, errs := p.Sweep(specs)
	var canceled int
	for i := range specs {
		if errs[i] != nil && errors.Is(errs[i], context.Canceled) {
			canceled++
			continue
		}
		if errs[i] != nil {
			// In-flight runs abort with a partial result.
			if outs[i] != nil && outs[i].Result == nil {
				t.Errorf("aborted run %d has neither result nor partial outcome", i)
			}
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatalf("cancellation abandoned no work: %d runs completed, errs=%v", completed, errs)
	}
	if int(atomic.LoadInt32(&completed)) >= len(specs) {
		t.Errorf("all %d specs ran to completion despite cancellation", len(specs))
	}

	// Fail-fast mode surfaces the cancellation as the batch error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := (&Pool{Workers: 4, Context: ctx2}).Run(specs[:2]); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled batch error = %v, want context.Canceled", err)
	}
}

// TestPoolRunSpecOfflineMatchesSerial drives the whole offline sweep
// through RunSpec at both widths and compares the winner.
func TestPoolRunSpecOfflineMatchesSerial(t *testing.T) {
	spec := Spec{Benchmark: "MM-small", Scheme: SchemeOffline}
	serial, err := (&Pool{Workers: 1}).RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Pool{Workers: 8}).RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Threshold != parallel.Threshold || serial.Result.Cycles != parallel.Result.Cycles {
		t.Errorf("offline winner diverged: serial threshold %d (%d cycles) vs parallel threshold %d (%d cycles)",
			serial.Threshold, serial.Result.Cycles, parallel.Threshold, parallel.Result.Cycles)
	}
}

// TestOfflineWinnerRelabelsACopy: Offline-Search hands every candidate
// to the observer and then labels its winner offline. An observer may
// keep the outcomes it is handed, so the label goes on a copy: every
// candidate the observer kept still reads threshold:N after the batch.
// The store holds stand-ins whose last candidate wins, so the winner is
// the last outcome observed.
func TestOfflineWinnerRelabelsACopy(t *testing.T) {
	app, err := Spec{Benchmark: "MM-small"}.buildApp()
	if err != nil {
		t.Fatal(err)
	}
	ts := SweepThresholds(app)
	st := store.Memory()
	for i, th := range ts {
		key := specKey(&Spec{Benchmark: "MM-small", Scheme: fmt.Sprintf("threshold:%d", th)})
		if err := st.Put(key, standIn(t, uint64(len(ts)-i), th)); err != nil {
			t.Fatal(err)
		}
	}
	var kept []*Outcome
	pool := &Pool{Workers: 1, Store: st, Observer: func(o *Outcome) { kept = append(kept, o) }}
	outs, err := pool.Run([]Spec{{Benchmark: "MM-small", Scheme: SchemeOffline}})
	if err != nil {
		t.Fatal(err)
	}
	if w := outs[0]; w.Spec.Scheme != SchemeOffline || w.Threshold != ts[len(ts)-1] {
		t.Errorf("winner %s threshold %d, want offline threshold %d", w.Spec.Scheme, w.Threshold, ts[len(ts)-1])
	}
	if len(kept) != len(ts) {
		t.Fatalf("observed %d candidates, want %d", len(kept), len(ts))
	}
	for _, o := range kept {
		if !strings.HasPrefix(o.Spec.Scheme, "threshold:") {
			t.Errorf("a kept candidate reads scheme %q, want threshold:N", o.Spec.Scheme)
		}
	}
}

// TestPoolDefaultsFireOncePerRun: Pool.Defaults is the only defaults
// hook, so nothing but the pool guards against applying it twice. It
// must fire exactly once per simulation — once per Offline-Search
// candidate plus once for the instrumented winner re-run — with or
// without a result store (whose replayed candidates count too), at any
// width.
func TestPoolDefaultsFireOncePerRun(t *testing.T) {
	app, err := Spec{Benchmark: "MM-small"}.buildApp()
	if err != nil {
		t.Fatal(err)
	}
	perSweep := int32(len(SweepThresholds(app)) + 1)
	for _, workers := range []int{1, 4} {
		for _, stored := range []bool{false, true} {
			var calls atomic.Int32
			p := &Pool{Workers: workers, Defaults: func(*Spec) { calls.Add(1) }}
			sweeps := 1
			if stored {
				p.Store = openCheckpoint(t, t.TempDir())
				sweeps = 2 // the second sweep replays every candidate
			}
			for i := 0; i < sweeps; i++ {
				spec := Spec{Benchmark: "MM-small", Scheme: SchemeOffline, Metrics: metrics.NewRegistry()}
				if _, err := p.RunSpec(spec); err != nil {
					t.Fatalf("workers=%d stored=%v: %v", workers, stored, err)
				}
			}
			if got, want := calls.Load(), int32(sweeps)*perSweep; got != want {
				t.Errorf("workers=%d stored=%v: Defaults fired %d times, want %d (once per run)",
					workers, stored, got, want)
			}
		}
	}
}

// TestPoolCancellationReachesOfflineSpec: an offline spec picked up by a
// worker runs its candidates on an inner pool, which must inherit the
// batch's run context. Canceling Pool.Context as the offline spec starts
// must stop its sweep rather than let every candidate run.
func TestPoolCancellationReachesOfflineSpec(t *testing.T) {
	app, err := Spec{Benchmark: "MM-small"}.buildApp()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var candidates atomic.Int32
	p := &Pool{
		Workers: 2,
		Context: ctx,
		Defaults: func(s *Spec) {
			if strings.HasPrefix(s.Scheme, "threshold:") {
				candidates.Add(1)
			}
		},
		Progress: func(pr PoolProgress) {
			if pr.Started && pr.Scheme == SchemeOffline {
				cancel()
			}
		},
	}
	_, errs := p.Sweep([]Spec{
		{Benchmark: "MM-small", Scheme: SchemeFlat},
		{Benchmark: "MM-small", Scheme: SchemeOffline},
	})
	if !errors.Is(errs[1], context.Canceled) {
		t.Fatalf("offline spec error = %v, want context.Canceled", errs[1])
	}
	if got, all := candidates.Load(), int32(len(SweepThresholds(app))); got >= all {
		t.Errorf("%d of %d candidates ran despite cancellation", got, all)
	}
}
