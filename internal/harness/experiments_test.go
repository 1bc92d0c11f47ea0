package harness

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"spawnsim/internal/metrics"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
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
		out, err := e.Run(pool, "")
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

// standIn is a store entry for a run the test does not simulate: one
// cycle, the given threshold and an empty metrics snapshot, so an
// observed pool replays it.
func standIn(t *testing.T, cycles uint64, threshold int) []byte {
	t.Helper()
	blob, err := encodeOutcome(&Outcome{Threshold: threshold,
		Result: &sim.Result{Cycles: kernel.Cycle(cycles)}, Metrics: &metrics.Snapshot{}})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRunCacheSharesOneComparisonBatch checks that the run cache is
// what spares Figures 15-18 and the Offline-Search candidates a second
// simulation. A memory store holds stand-ins for every run of the
// comparison batch except MM-small's. fig5 on MM-small simulates its
// sweep; fig15 then replays MM-small's flat run and every candidate
// and simulates only its Baseline-DP and SPAWN runs; fig18 simulates
// nothing.
func TestRunCacheSharesOneComparisonBatch(t *testing.T) {
	st := store.Memory()
	for _, name := range workloads.Names() {
		if name == "MM-small" {
			continue
		}
		app, err := Spec{Benchmark: name}.buildApp()
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []string{SchemeFlat, SchemeBaseline, SchemeSpawn} {
			if err := st.Put(specKey(&Spec{Benchmark: name, Scheme: scheme}), standIn(t, 1, 0)); err != nil {
				t.Fatal(err)
			}
		}
		for _, th := range SweepThresholds(app) {
			scheme := fmt.Sprintf("threshold:%d", th)
			if err := st.Put(specKey(&Spec{Benchmark: name, Scheme: scheme}), standIn(t, 1, th)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var live, replayed []string // the observed runs of the current experiment
	pool := &Pool{Store: st, Observer: func(o *Outcome) {
		id := o.Spec.Benchmark + "/" + o.Spec.Scheme
		if o.Attempts > 0 {
			live = append(live, id)
		} else {
			replayed = append(replayed, id)
		}
	}}
	observed := map[string]int{}
	for _, id := range []string{"fig5", "fig15", "fig18"} {
		live, replayed = nil, nil
		e, err := FindExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(pool, "MM-small"); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sort.Strings(live)
		observed[id] = len(live) + len(replayed)
		switch id {
		case "fig5":
			if len(live) == 0 || len(replayed) != 0 {
				t.Errorf("fig5 simulated %d runs and replayed %d; want its whole sweep simulated", len(live), len(replayed))
			}
		case "fig15":
			if want := []string{"MM-small/baseline", "MM-small/spawn"}; !reflect.DeepEqual(live, want) {
				t.Errorf("fig15 simulated %v; want %v", live, want)
			}
		case "fig18":
			if len(live) != 0 {
				t.Errorf("fig18 simulated %v; want every run replayed", live)
			}
		}
	}
	if observed["fig18"] != observed["fig15"] {
		t.Errorf("fig15 observed %d runs, fig18 %d; want the same batch", observed["fig15"], observed["fig18"])
	}
}
