package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
// renders every artifact a harness would write to disk. ctx, store and
// journal come from the pool; a nil pool error is required unless
// allowErr is set (interrupted invocations die mid-sweep by design).
func sweepArtifacts(t *testing.T, p *Pool, allowErr bool) map[string][]byte {
	t.Helper()
	var traceBuf bytes.Buffer
	sink := trace.NewJSONL(&traceBuf)
	reg := metrics.NewRegistry()

	observed := map[string][]byte{}
	p.Observer = func(o *Outcome) {
		var b bytes.Buffer
		if err := o.Metrics.WriteCSV(&b); err != nil {
			t.Errorf("observer metrics CSV: %v", err)
		}
		observed[o.Spec.Scheme] = b.Bytes()
	}
	out, err := p.RunSpec(resumeSpec(reg, sink))
	if err != nil {
		if allowErr {
			return nil
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
	return arts
}

// openCheckpoint opens (or reopens) a resume checkpoint directory the
// way the CLIs do: <dir>/store for results, <dir>/journal.jsonl for the
// ledger.
func openCheckpoint(t *testing.T, dir string) (*store.Store, *store.Journal) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	j, err := store.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatalf("store.OpenJournal: %v", err)
	}
	return st, j
}

// interruptThenResume simulates a sweep killed mid-flight: a first
// invocation is canceled after `after` completed points (the moral
// equivalent of a SIGKILL — whatever landed in the store stays, the
// rest is lost), then a second invocation over the same checkpoint
// directory runs to completion and returns its artifacts plus the
// resumed journal's statuses.
func interruptThenResume(t *testing.T, workers, after int) (map[string][]byte, []store.Entry) {
	t.Helper()
	dir := t.TempDir()

	st, j := openCheckpoint(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	p := &Pool{
		Workers: workers,
		Context: ctx,
		Store:   st,
		Journal: j,
		Progress: func(pr PoolProgress) {
			if !pr.Started && int(done.Add(1)) >= after {
				cancel()
			}
		},
	}
	sweepArtifacts(t, p, true)
	if err := j.Close(); err != nil {
		t.Fatalf("closing interrupted journal: %v", err)
	}

	st2, j2 := openCheckpoint(t, dir)
	defer j2.Close()
	p2 := &Pool{Workers: workers, Store: st2, Journal: j2}
	arts := sweepArtifacts(t, p2, false)

	// Reload the ledger to see what the resumed invocation recorded.
	entries := loadJournalTail(t, filepath.Join(dir, "journal.jsonl"), len(j2.Prior()))
	return arts, entries
}

// loadJournalTail reopens the journal and returns the entries appended
// after the first `skip` (the resumed invocation's own records).
func loadJournalTail(t *testing.T, path string, skip int) []store.Entry {
	t.Helper()
	j, err := store.OpenJournal(path)
	if err != nil {
		t.Fatalf("reloading journal: %v", err)
	}
	defer j.Close()
	all := j.Prior()
	if len(all) < skip {
		t.Fatalf("journal shrank: %d entries, had %d before resume", len(all), skip)
	}
	return all[skip:]
}

// TestInterruptedSweepResumesByteIdentical is the tentpole's acceptance
// test: a chaos Offline-Search killed mid-batch and resumed from its
// checkpoint directory must emit artifacts byte-identical to an
// uninterrupted sweep, at Workers=1 and Workers=4 — and the resumed
// invocation must actually replay finished points from the store rather
// than recomputing the world.
func TestInterruptedSweepResumesByteIdentical(t *testing.T) {
	clean := sweepArtifacts(t, &Pool{Workers: 1}, false)
	for _, workers := range []int{1, 4} {
		arts, entries := interruptThenResume(t, workers, 2)
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
		replayed := 0
		for _, e := range entries {
			if e.Status == store.StatusReplayed {
				replayed++
			}
		}
		if replayed == 0 {
			t.Errorf("workers=%d: resumed sweep replayed nothing; journal tail: %+v", workers, entries)
		}
	}
}

// TestRunSpecReplaysFromStore: a second identical invocation over the
// same store must be served from it — same bytes, zero simulation.
func TestRunSpecReplaysFromStore(t *testing.T) {
	st, j := openCheckpoint(t, t.TempDir())
	defer j.Close()
	p := &Pool{Workers: 1, Store: st, Journal: j}
	spec := Spec{Benchmark: "MM-small", Scheme: SchemeFlat}

	first, err := p.RunSpec(spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.Replayed || first.Attempts != 1 {
		t.Fatalf("first run: Replayed=%v Attempts=%d, want live single-attempt", first.Replayed, first.Attempts)
	}
	second, err := p.RunSpec(spec)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !second.Replayed {
		t.Fatal("second identical run did not replay from the store")
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

// TestCorruptStoreEntriesRerun: damaged store entries must cost a
// recomputation, never a wrong replay or a crashed sweep.
func TestCorruptStoreEntriesRerun(t *testing.T) {
	dir := t.TempDir()
	st, j := openCheckpoint(t, dir)
	defer j.Close()
	p := &Pool{Workers: 1, Store: st, Journal: j}
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
	if second.Replayed {
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
	dir := t.TempDir()
	st, j := openCheckpoint(t, dir)
	defer j.Close()
	p := &Pool{Workers: 1, Store: st, Journal: j}
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
	if second.Replayed {
		t.Fatal("quarantined outcome was stored and replayed")
	}
	tail := loadJournalTail(t, filepath.Join(dir, "journal.jsonl"), 0)
	for _, e := range tail {
		if e.Status != store.StatusQuarantined {
			t.Errorf("journal entry status = %q, want %q", e.Status, store.StatusQuarantined)
		}
		if e.Err == "" {
			t.Error("quarantined journal entry carries no error")
		}
	}
}

// TestStallTimeoutRewrapsAsStalled: the wall-clock guard must classify
// its abort as AbortStalled — one stall taxonomy whether the cycle
// watchdog or the wall guard caught it.
func TestStallTimeoutRewrapsAsStalled(t *testing.T) {
	spec := Spec{
		Benchmark:    "BFS-graph500",
		Scheme:       SchemeFlat,
		StallTimeout: time.Nanosecond, // fires before any heartbeat can land
	}
	out, err := Run(spec)
	if err == nil {
		t.Fatal("run with an instant stall timeout completed")
	}
	kind, ok := AbortKind(err)
	if !ok || kind != sim.AbortStalled {
		t.Fatalf("error = %v, want an AbortStalled abort", err)
	}
	if !strings.Contains(err.Error(), "wall-clock stall guard") {
		t.Errorf("stall error %q does not name the wall-clock guard", err)
	}
	if out == nil || out.Result == nil {
		t.Error("stall abort carries no partial result")
	}
	if code := ExitCode(err); code != ExitTimeout {
		t.Errorf("ExitCode = %d, want %d", code, ExitTimeout)
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
