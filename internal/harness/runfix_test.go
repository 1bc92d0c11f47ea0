package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/faults"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
)

// TestCSVKeepsFullFloatPrecision is the regression test for the fixed
// 6-digit CSV formatting: cycle counts past 10^7 were silently rounded
// (12345678 became 1.23457e+07), so two runs differing only past the
// sixth significant digit produced identical CSV bytes. Precision -1
// emits the shortest string that round-trips the exact float64.
func TestCSVKeepsFullFloatPrecision(t *testing.T) {
	big := 123456789.0 // > 10^7: rounds to 1.23457e+08 at precision 6
	table := &Table{
		Columns: []string{"cycles"},
		Rows:    []Row{{Label: "X", Values: []float64{big}}},
	}
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if strings.Contains(got, "1.23457e+08") {
		t.Fatalf("CSV still rounds to 6 significant digits:\n%s", got)
	}
	cell := strings.TrimSpace(strings.Split(strings.Split(got, "\n")[1], ",")[1])
	back, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("CSV cell %q does not parse: %v", cell, err)
	}
	if back != big {
		t.Errorf("CSV cell %q round-trips to %v, want %v", cell, back, big)
	}

	fig5 := &Fig5Result{
		Benchmark: "X",
		Points:    []Fig5Point{{Threshold: 1, Offload: 0.5, Speedup: big}},
	}
	buf.Reset()
	if err := fig5.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.23456789e+08") {
		t.Errorf("Fig5 CSV lost precision on %v:\n%s", big, buf.String())
	}
}

// TestRetriedRunNeverMutatesCallerPlan is the regression test for the
// retry loop writing its derived seeds through the caller's *faults.Plan:
// after a retried run the caller's plan must be untouched, and the
// Outcome must store a private copy rather than aliasing the caller's
// pointer.
func TestRetriedRunNeverMutatesCallerPlan(t *testing.T) {
	plan := faults.Mild(42)
	want := plan // full value snapshot before the run
	calls := 0
	spec := panickySpec(&calls)
	spec.FaultPlan, spec.Retries = &plan, 2
	out, err := Run(spec)
	if err == nil {
		t.Fatal("always-panicking policy reported success")
	}
	if calls != 3 {
		t.Fatalf("policy ran %d attempts, want 3 — retries did not happen, so the test proves nothing", calls)
	}
	if plan != want {
		t.Errorf("retried run mutated the caller's fault plan: %+v, want %+v", plan, want)
	}
	if plan.Seed != 42 {
		t.Errorf("caller's plan seed is %d after retries, want 42", plan.Seed)
	}
	// A failed run returns no outcome for a pure panic; verify the
	// aliasing contract on a successful chaos run instead.
	out, err = Run(Spec{Benchmark: "MM-small", Scheme: SchemeSpawn, FaultPlan: &plan, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Spec.FaultPlan == &plan {
		t.Error("Outcome.Spec.FaultPlan aliases the caller's plan pointer")
	}
	if *out.Spec.FaultPlan != want {
		t.Errorf("Outcome recorded plan %+v, want the caller's %+v", *out.Spec.FaultPlan, want)
	}
	if plan != want {
		t.Errorf("successful run mutated the caller's fault plan: %+v, want %+v", plan, want)
	}
}

// TestOutcomeOwnsConfigCopy checks the other pointer field of the
// ownership contract: mutating the caller's config after a run must not
// change what the Outcome records.
func TestOutcomeOwnsConfigCopy(t *testing.T) {
	cfg := config.K20m()
	out, err := Run(Spec{Benchmark: "MM-small", Scheme: SchemeFlat, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if out.Spec.Config == &cfg {
		t.Fatal("Outcome.Spec.Config aliases the caller's config pointer")
	}
	orig := cfg.NumHWQs
	cfg.NumHWQs = orig + 99
	if got := out.Spec.Config.NumHWQs; got != orig {
		t.Errorf("Outcome config changed under the caller's mutation: NumHWQs = %d, want %d", got, orig)
	}
}

// TestBetterOutcomeTieBreak pins the Offline-Search winner reduction:
// fewer cycles win, and on exactly equal cycles the lower threshold
// wins, in either comparison order — the property that makes the winner
// independent of candidate completion order.
func TestBetterOutcomeTieBreak(t *testing.T) {
	mk := func(cycles kernel.Cycle, thr int) *Outcome {
		return &Outcome{Threshold: thr, Result: &sim.Result{Cycles: cycles}}
	}
	fast, slow := mk(100, 512), mk(200, 64)
	tieLow, tieHigh := mk(100, 64), mk(100, 512)

	if !betterOutcome(fast, nil) {
		t.Error("any outcome must beat nil")
	}
	if !betterOutcome(fast, slow) || betterOutcome(slow, fast) {
		t.Error("fewer cycles must win regardless of threshold")
	}
	if !betterOutcome(tieLow, tieHigh) {
		t.Error("on equal cycles the lower threshold must win")
	}
	if betterOutcome(tieHigh, tieLow) {
		t.Error("tie-break is not antisymmetric: both orders claim victory")
	}
}

// TestOfflineSearchTieBreakDeterministic folds the same candidate set in
// submission order and reversed order and checks both crown the same
// winner — the reduction the pool relies on for any-width determinism.
func TestOfflineSearchTieBreakDeterministic(t *testing.T) {
	outs := []*Outcome{
		{Threshold: 512, Result: &sim.Result{Cycles: 100}},
		{Threshold: 64, Result: &sim.Result{Cycles: 100}},
		{Threshold: 8, Result: &sim.Result{Cycles: 150}},
		{Threshold: 128, Result: &sim.Result{Cycles: 100}},
	}
	reduce := func(outs []*Outcome) *Outcome {
		var best *Outcome
		for _, o := range outs {
			if betterOutcome(o, best) {
				best = o
			}
		}
		return best
	}
	fwd := reduce(outs)
	rev := reduce([]*Outcome{outs[3], outs[2], outs[1], outs[0]})
	if fwd != rev {
		t.Fatalf("fold order changed the winner: forward threshold %d, reverse threshold %d",
			fwd.Threshold, rev.Threshold)
	}
	if fwd.Threshold != 64 {
		t.Errorf("winner threshold = %d, want 64 (lowest among the tied fastest)", fwd.Threshold)
	}
}
