package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spawnsim/internal/config"
	"spawnsim/internal/faults"
	"spawnsim/internal/metrics"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/store"
	"spawnsim/internal/trace"
)

// resumeSpec is the chaos-enabled instrumented Offline-Search every
// resume test sweeps: fault injection plus retries exercises the failure
// paths, metrics/trace instrumentation exercises the replay-fitness
// rules (the instrumented winner re-run can never replay).
func resumeSpec(reg *metrics.Registry, sink trace.Sink) Spec {
	plan := faults.Mild(3)
	s := Spec{
		Benchmark:       "MM-small",
		Scheme:          SchemeOffline,
		FaultPlan:       &plan,
		Retries:         2,
		CheckInvariants: true,
	}
	if reg != nil {
		s.Metrics = reg
	}
	if sink != nil {
		s.TraceSinks = []trace.Sink{sink}
	}
	return s
}

// sweepArtifacts runs the resume sweep through the given pool and
// renders every artifact a harness would write to disk, and counts the
// observed outcomes replayed from the store (Attempts == 0). ctx and
// store come from the pool; a nil pool error is required unless
// allowErr is set (interrupted invocations die mid-sweep by design).
func sweepArtifacts(t *testing.T, p *Pool, allowErr bool) (map[string][]byte, int) {
	t.Helper()
	var traceBuf bytes.Buffer
	sink := trace.NewJSONL(&traceBuf)
	reg := metrics.NewRegistry()

	observed := map[string][]byte{}
	replayed := 0
	p.Observer = func(o *Outcome) {
		var b bytes.Buffer
		if err := o.Metrics.WriteCSV(&b); err != nil {
			t.Errorf("observer metrics CSV: %v", err)
		}
		observed[o.Spec.Scheme] = b.Bytes()
		if o.Attempts == 0 {
			replayed++
		}
	}
	out, err := p.RunSpec(resumeSpec(reg, sink))
	if err != nil {
		if allowErr {
			return nil, replayed
		}
		t.Fatalf("RunSpec: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("closing trace sink: %v", err)
	}

	arts := map[string][]byte{}
	oj, err := json.Marshal(out.Result)
	if err != nil {
		t.Fatalf("marshaling result: %v", err)
	}
	arts["outcome.json"] = oj
	var csvBuf bytes.Buffer
	if err := out.Metrics.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("metrics CSV: %v", err)
	}
	arts["metrics.csv"] = csvBuf.Bytes()
	arts["trace.jsonl"] = traceBuf.Bytes()
	var fails strings.Builder
	for _, f := range out.Failures {
		fmt.Fprintf(&fails, "%s: %v\n", f.Scheme, f.Err)
	}
	arts["failures.txt"] = []byte(fails.String())
	for scheme, snap := range observed {
		arts["observed-"+scheme+".csv"] = snap
	}
	return arts, replayed
}

// openCheckpoint opens (or reopens) a resume checkpoint directory the
// way the CLIs do: <dir>/store holds the results.
func openCheckpoint(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// interruptThenResume simulates a sweep killed mid-flight: a first
// invocation is canceled after `after` completed points (the moral
// equivalent of a SIGKILL — whatever landed in the store stays, the
// rest is lost), then a second invocation over the same checkpoint
// directory runs to completion and returns its artifacts plus the number
// of outcomes it replayed.
func interruptThenResume(t *testing.T, workers, after int) (map[string][]byte, int) {
	t.Helper()
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	p := &Pool{
		Workers: workers,
		Context: ctx,
		Store:   openCheckpoint(t, dir),
		Progress: func(pr PoolProgress) {
			if !pr.Started && int(done.Add(1)) >= after {
				cancel()
			}
		},
	}
	sweepArtifacts(t, p, true)
	return sweepArtifacts(t, &Pool{Workers: workers, Store: openCheckpoint(t, dir)}, false)
}

// TestInterruptedSweepResumesByteIdentical is the tentpole's acceptance
// test: a chaos Offline-Search killed mid-batch and resumed from its
// checkpoint directory must emit artifacts byte-identical to an
// uninterrupted sweep, at Workers=1 and Workers=4 — and the resumed
// invocation must actually replay finished points from the store rather
// than recomputing the world.
func TestInterruptedSweepResumesByteIdentical(t *testing.T) {
	clean, _ := sweepArtifacts(t, &Pool{Workers: 1}, false)
	for _, workers := range []int{1, 4} {
		arts, replayed := interruptThenResume(t, workers, 2)
		if len(arts) != len(clean) {
			t.Errorf("workers=%d: artifact sets differ: %d resumed vs %d clean", workers, len(arts), len(clean))
		}
		for name, want := range clean {
			got, ok := arts[name]
			if !ok {
				t.Errorf("workers=%d: resumed run missing artifact %s", workers, name)
				continue
			}
			if !bytes.Equal(want, got) {
				t.Errorf("workers=%d: artifact %s differs after resume:\nclean:   %.200s\nresumed: %.200s",
					workers, name, want, got)
			}
		}
		if replayed == 0 {
			t.Errorf("workers=%d: resumed sweep replayed nothing", workers)
		}
	}
}

// TestRunSpecReplaysFromStore: a second identical invocation over the
// same store must be served from it — same bytes, zero simulation.
func TestRunSpecReplaysFromStore(t *testing.T) {
	p := &Pool{Workers: 1, Store: openCheckpoint(t, t.TempDir())}
	spec := Spec{Benchmark: "MM-small", Scheme: SchemeFlat}

	first, err := p.RunSpec(spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.Attempts != 1 {
		t.Fatalf("first run: Attempts=%d, want live single-attempt", first.Attempts)
	}
	second, err := p.RunSpec(spec)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if second.Attempts != 0 {
		t.Fatalf("second identical run: Attempts=%d, want 0 (replayed from the store)", second.Attempts)
	}
	fj, _ := json.Marshal(first.Result)
	sj, _ := json.Marshal(second.Result)
	if !bytes.Equal(fj, sj) {
		t.Errorf("replayed result differs from live result:\nlive:     %.200s\nreplayed: %.200s", fj, sj)
	}
	if second.TotalWork != first.TotalWork || second.Threshold != first.Threshold {
		t.Errorf("replayed outcome metadata differs: TotalWork %d vs %d, Threshold %d vs %d",
			second.TotalWork, first.TotalWork, second.Threshold, first.Threshold)
	}
}

// TestOutcomeKeyIsStoreKey: Outcome.Key addresses the stored result of
// the spec as it ran, tells apart sweep points that share a benchmark
// and scheme, and is empty for an uncacheable spec.
func TestOutcomeKeyIsStoreKey(t *testing.T) {
	st := openCheckpoint(t, t.TempDir())
	p := &Pool{Workers: 1, Store: st}
	out, err := p.RunSpec(Spec{Benchmark: "MM-small", Scheme: SchemeFlat})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(out.Key()); !ok {
		t.Errorf("no stored result under Outcome.Key %q", out.Key())
	}
	a := Outcome{Spec: Spec{Benchmark: "MM-small", Scheme: SchemeSpawn, ChildCTASize: 32}}
	b := Outcome{Spec: Spec{Benchmark: "MM-small", Scheme: SchemeSpawn, ChildCTASize: 64}}
	if a.Key() == b.Key() {
		t.Error("specs differing only in ChildCTASize share a key")
	}
	u := Outcome{Spec: Spec{Benchmark: "MM-small", MakePolicy: func(config.GPU) kernel.Policy { return nil }}}
	if k := u.Key(); k != "" {
		t.Errorf("uncacheable spec has key %q, want none", k)
	}
}

// TestSpecKeyClassifiesEveryField: every Spec field either enters the
// content address (a specKeyDesc field of the same name) or sits on the
// unkeyed list below with its reason. A result-affecting field added
// without a key entry would let one run replay another's stored result.
func TestSpecKeyClassifiesEveryField(t *testing.T) {
	unkeyed := map[string]string{
		"MakePolicy":     "named by PolicyTag",
		"Engine":         "both engines give byte-identical results",
		"TraceSinks":     "observer",
		"Metrics":        "observer",
		"Heartbeat":      "observer",
		"HeartbeatEvery": "observer",
		"Deadline":       "abort knob",
		"Tolerate":       "abort knob",
		"StallWindow":    "abort knob",
	}
	desc, spec := reflect.TypeOf(specKeyDesc{}), reflect.TypeOf(Spec{})
	for i := 0; i < spec.NumField(); i++ {
		name := spec.Field(i).Name
		_, keyed := desc.FieldByName(name)
		_, listed := unkeyed[name]
		if keyed == listed {
			t.Errorf("Spec.%s: in specKeyDesc %v, on the unkeyed list %v; want exactly one", name, keyed, listed)
		}
	}
	for i := 0; i < desc.NumField(); i++ {
		if _, ok := spec.FieldByName(desc.Field(i).Name); !ok {
			t.Errorf("specKeyDesc.%s names no Spec field", desc.Field(i).Name)
		}
	}
}

// TestCorruptStoreEntriesRerun: damaged store entries must cost a
// recomputation, never a wrong replay or a crashed sweep.
func TestCorruptStoreEntriesRerun(t *testing.T) {
	dir := t.TempDir()
	p := &Pool{Workers: 1, Store: openCheckpoint(t, dir)}
	spec := Spec{Benchmark: "MM-small", Scheme: SchemeFlat}

	first, err := p.RunSpec(spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	// Truncate every stored entry — bit rot, torn writes, the lot.
	storeDir := filepath.Join(dir, "store")
	err = filepath.Walk(storeDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("{corrupt"), 0o644)
	})
	if err != nil {
		t.Fatalf("corrupting store: %v", err)
	}
	second, err := p.RunSpec(spec)
	if err != nil {
		t.Fatalf("run over corrupted store: %v", err)
	}
	if second.Attempts == 0 {
		t.Fatal("corrupt entry was replayed instead of missing")
	}
	fj, _ := json.Marshal(first.Result)
	sj, _ := json.Marshal(second.Result)
	if !bytes.Equal(fj, sj) {
		t.Errorf("re-run over corrupted store diverged:\nfirst:  %.200s\nsecond: %.200s", fj, sj)
	}
}

// TestDeadlineRetriesGetFreshBudget is the Deadline×Retries regression
// test: Spec.Deadline is a per-attempt wall budget, so a deadline abort
// under chaos must consume the retry budget (one fresh policy per
// attempt) instead of giving up after the first expiry.
func TestDeadlineRetriesGetFreshBudget(t *testing.T) {
	var calls atomic.Int32
	plan := faults.Mild(7)
	spec := Spec{
		Benchmark: "MM-small",
		PolicyTag: "flat-counted",
		MakePolicy: func(config.GPU) kernel.Policy {
			calls.Add(1)
			return runtime.Flat{}
		},
		FaultPlan: &plan,
		Retries:   2,
		Deadline:  time.Nanosecond, // every attempt expires immediately
	}
	out, err := Run(spec)
	if err == nil {
		t.Fatal("nanosecond deadline run succeeded")
	}
	if kind, ok := AbortKind(err); !ok || kind != sim.AbortDeadline {
		t.Fatalf("error = %v, want an AbortDeadline abort", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("policy factory called %d times, want 3 (one per attempt: deadline retries get a fresh budget)", got)
	}
	if out == nil || out.Attempts != 3 {
		t.Errorf("outcome attempts = %+v, want 3", out)
	}
	if code := ExitCode(err); code != ExitTimeout {
		t.Errorf("ExitCode = %d, want %d", code, ExitTimeout)
	}
}

// TestNegativeRetriesFail: a negative retry budget runs no attempt, so
// it must fail the run with an error rather than return no outcome and
// no error, with or without a store, for a single run and a sweep.
func TestNegativeRetriesFail(t *testing.T) {
	for _, p := range []*Pool{{Workers: 1}, {Workers: 1, Store: openCheckpoint(t, t.TempDir())}} {
		for _, scheme := range []string{SchemeFlat, SchemeOffline} {
			out, err := p.RunSpec(Spec{Benchmark: "MM-small", Scheme: scheme, Retries: -1})
			if err == nil || !strings.Contains(err.Error(), "negative retry budget") {
				t.Errorf("%s store=%v: err = %v, want a negative retry budget error", scheme, p.Store != nil, err)
			}
			if out != nil {
				t.Errorf("%s store=%v: outcome %+v, want none", scheme, p.Store != nil, out)
			}
		}
	}
}

// TestCallerContextDeadlineIsPermanent: when the deadline came from the
// caller's context — their total budget — no retry can help, so the
// first expiry must end the run.
func TestCallerContextDeadlineIsPermanent(t *testing.T) {
	var calls atomic.Int32
	plan := faults.Mild(7)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	spec := Spec{
		Benchmark: "MM-small",
		MakePolicy: func(config.GPU) kernel.Policy {
			calls.Add(1)
			return runtime.Flat{}
		},
		FaultPlan: &plan,
		Retries:   2,
	}
	if _, err := (&Pool{Workers: 1, Context: ctx}).RunSpec(spec); err == nil {
		t.Fatal("expired-context run succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("policy factory called %d times, want 1 (context expiry is permanent)", got)
	}
}

// TestQuarantineIsDeterministic: a tolerant spec whose every attempt
// fails must degrade to the same quarantined partial outcome on every
// invocation — quarantine is graceful, not random.
func TestQuarantineIsDeterministic(t *testing.T) {
	plan := faults.Mild(5)
	spec := Spec{
		Benchmark: "MM-small",
		Scheme:    SchemeSpawn,
		FaultPlan: &plan,
		Retries:   1,
		MaxCycles: 20_000, // far below what MM-small needs: every attempt aborts
		Tolerate:  true,
	}
	run := func() *Outcome {
		t.Helper()
		out, err := Run(spec)
		if err != nil {
			t.Fatalf("tolerant run returned an error: %v", err)
		}
		if out == nil || !out.Quarantined() {
			t.Fatalf("tolerant exhausted run was not quarantined: %+v", out)
		}
		return out
	}
	a, b := run(), c2b(t, run())
	aj, _ := json.Marshal(a.Result)
	if !bytes.Equal(aj, b) {
		t.Errorf("quarantined partial results differ across invocations:\nfirst:  %.200s\nsecond: %.200s", aj, b)
	}
	if a.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (retry budget consumed before quarantine)", a.Attempts)
	}
	q := a.Failures[len(a.Failures)-1]
	if !q.Quarantined || q.Attempts != 2 || q.Err == nil {
		t.Errorf("quarantine record = %+v, want Quarantined with 2 attempts and an error", q)
	}

	// The same spec without Tolerate fails outright.
	strict := spec
	strict.Tolerate = false
	if _, err := Run(strict); err == nil {
		t.Error("non-tolerant exhausted run returned nil error")
	}
}

func c2b(t *testing.T, o *Outcome) []byte {
	t.Helper()
	j, err := json.Marshal(o.Result)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return j
}

// TestQuarantinedOutcomesNeverEnterStore: replaying a quarantined
// partial result as a success would poison every future resume.
func TestQuarantinedOutcomesNeverEnterStore(t *testing.T) {
	st := openCheckpoint(t, t.TempDir())
	p := &Pool{Workers: 1, Store: st}
	plan := faults.Mild(5)
	spec := Spec{
		Benchmark: "MM-small",
		Scheme:    SchemeSpawn,
		FaultPlan: &plan,
		MaxCycles: 20_000,
		Tolerate:  true,
	}
	first, err := p.RunSpec(spec)
	if err != nil || !first.Quarantined() {
		t.Fatalf("tolerant run: out=%+v err=%v, want quarantined success", first, err)
	}
	second, err := p.RunSpec(spec)
	if err != nil {
		t.Fatalf("second tolerant run: %v", err)
	}
	if second.Attempts == 0 {
		t.Fatal("quarantined outcome was stored and replayed")
	}
	if !second.Quarantined() {
		t.Fatalf("second tolerant run was not quarantined: %+v", second)
	}
	for _, f := range second.Failures {
		if f.Quarantined && f.Err == nil {
			t.Error("quarantined failure carries no error")
		}
	}
	if n := st.Len(); n != 0 {
		t.Errorf("store holds %d entries after two quarantined runs, want 0", n)
	}
}

// deferAll defers every launch candidate, so a launching warp livelocks
// inside the launch API: the clock advances, nothing else does.
type deferAll struct{ kernel.BasePolicy }

func (deferAll) Name() string { return "defer-all" }
func (deferAll) Decide(*kernel.LaunchSite) kernel.Decision {
	return kernel.Decision{Action: kernel.Defer, APICycles: 100}
}

// TestStallWindowAbortsThroughHarness: the cycle watchdog's abort must
// reach a harness caller whole — classified AbortStalled with its
// machine snapshot, a partial result, the timeout exit code — and, with
// no fault plan, must not be retried.
func TestStallWindowAbortsThroughHarness(t *testing.T) {
	out, err := Run(Spec{
		Benchmark:   "MM-small",
		MakePolicy:  func(config.GPU) kernel.Policy { return deferAll{} },
		StallWindow: 100_000,
		MaxCycles:   50_000_000,
		Retries:     1,
	})
	if kind, ok := AbortKind(err); !ok || kind != sim.AbortStalled {
		t.Fatalf("error = %v, want an AbortStalled abort", err)
	}
	var abort *sim.AbortError
	if !errors.As(err, &abort) || abort.Stall == nil {
		t.Errorf("stall abort %v carries no machine snapshot", err)
	}
	if out == nil || out.Result == nil {
		t.Fatal("stall abort carries no partial result")
	}
	if out.Result.Cycles >= 50_000_000 {
		t.Errorf("aborted at cycle %d, the MaxCycles bound rather than the stall window", out.Result.Cycles)
	}
	if code := ExitCode(err); code != ExitTimeout {
		t.Errorf("ExitCode = %d, want %d", code, ExitTimeout)
	}
	if out.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (nothing retries without a fault plan)", out.Attempts)
	}
}

// TestExitCodeTaxonomy pins the CLI exit-code mapping.
func TestExitCodeTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{&sim.AbortError{Kind: sim.AbortCanceled}, ExitCanceled},
		{&sim.AbortError{Kind: sim.AbortDeadline}, ExitTimeout},
		{&sim.AbortError{Kind: sim.AbortStalled}, ExitTimeout},
		{&sim.AbortError{Kind: sim.AbortInvariant}, ExitInvariant},
		{&sim.AbortError{Kind: sim.AbortMaxCycles}, ExitFailure},
		{&sim.AbortError{Kind: sim.AbortDeadlock}, ExitFailure},
		{fmt.Errorf("wrapped: %w", &sim.AbortError{Kind: sim.AbortStalled}), ExitTimeout},
		{context.Canceled, ExitCanceled},
		{context.DeadlineExceeded, ExitTimeout},
		{fmt.Errorf("plain failure"), ExitFailure},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
