package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"spawnsim/internal/metrics"
	"spawnsim/internal/sim"
	"spawnsim/internal/store"
	"spawnsim/internal/workloads"
)

// TestExperimentTable pins the shape of the experiment index: ids are
// unique and in -all order (Tables, then Figures by number, then the
// extension studies), lookup rejects unknown ids, and the two tables
// render without running a simulation.
func TestExperimentTable(t *testing.T) {
	// rank orders an id the way -all prints the paper: tables first,
	// then figures by number, then everything else.
	rank := func(id string) (group, n int) {
		for g, prefix := range []string{"table", "fig"} {
			if num, err := strconv.Atoi(strings.TrimPrefix(id, prefix)); err == nil && strings.HasPrefix(id, prefix) {
				return g, num
			}
		}
		return 2, 0
	}
	seen := map[string]bool{}
	prevGroup, prevN := -1, 0
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		g, n := rank(e.ID)
		if g < prevGroup || (g == prevGroup && g < 2 && n <= prevN) {
			t.Errorf("experiment %q is out of -all order", e.ID)
		}
		prevGroup, prevN = g, n
		if got, err := FindExperiment(e.ID); err != nil || got.ID != e.ID {
			t.Errorf("FindExperiment(%q) = %q, %v", e.ID, got.ID, err)
		}
	}
	if _, err := FindExperiment("nope"); err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Errorf("FindExperiment(nope) error = %v", err)
	}

	runs := 0
	pool := &Pool{Defaults: func(*Spec) { runs++ }}
	for id, head := range map[string]string{
		"table1": "Table I: benchmarks",
		"table2": "GPU configuration parameters (Table II)",
	} {
		e, err := FindExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(pool, &Memo{}, "")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.HasPrefix(out.Text, head) || len(out.CSVs) != 0 {
			t.Errorf("%s: text %.60q with %d CSVs", id, out.Text, len(out.CSVs))
		}
	}
	if runs != 0 {
		t.Errorf("rendering the tables ran %d simulations, want 0", runs)
	}
}

// TestMemoSharesOneComparisonBatch checks that Figures 15-18 on one
// memo run the CompareAll batch once. The store is seeded with a
// stand-in outcome for every run of the batch (Offline-Search
// candidates included), so the batch replays instead of simulating.
func TestMemoSharesOneComparisonBatch(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeOutcome(&Outcome{Result: &sim.Result{Cycles: 1}, Metrics: &metrics.Snapshot{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		app, err := Spec{Benchmark: name}.buildApp()
		if err != nil {
			t.Fatal(err)
		}
		schemes := []string{SchemeFlat, SchemeBaseline, SchemeSpawn}
		for _, th := range SweepThresholds(app) {
			schemes = append(schemes, fmt.Sprintf("threshold:%d", th))
		}
		for _, scheme := range schemes {
			if err := st.Put(specKey(&Spec{Benchmark: name, Scheme: scheme}), blob); err != nil {
				t.Fatal(err)
			}
		}
	}

	runs := 0
	pool := &Pool{Workers: 1, Store: st, Observer: func(*Outcome) { runs++ }}
	var memo Memo
	var after []int
	for _, id := range []string{"fig15", "fig18"} {
		e, err := FindExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(pool, &memo, "")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out.CSVs) != 1 || out.CSVs[0].Name != id {
			t.Errorf("%s: CSVs %+v, want one named %s", id, out.CSVs, id)
		}
		after = append(after, runs)
	}
	if after[0] == 0 || after[1] != after[0] {
		t.Errorf("runs after fig15, fig18 = %v; want one nonempty batch shared by both", after)
	}
}
