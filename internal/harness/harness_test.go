package harness

import (
	"strconv"
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/workloads"
)

func TestRunRejectsUnknown(t *testing.T) {
	if _, err := Run(Spec{Benchmark: "nope", Scheme: SchemeFlat}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(Spec{Benchmark: "MM-small", Scheme: "nope"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Run(Spec{Benchmark: "MM-small", Scheme: "threshold:x"}); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestRunSchemes(t *testing.T) {
	for _, s := range []string{SchemeFlat, SchemeBaseline, SchemeSpawn, SchemeDTBL, "threshold:500"} {
		out, err := Run(Spec{Benchmark: "MM-small", Scheme: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if out.Result.Cycles == 0 {
			t.Errorf("%s: zero cycles", s)
		}
		if out.TotalWork <= 0 {
			t.Errorf("%s: no total work", s)
		}
	}
}

func TestThresholdZeroOffloadsEverything(t *testing.T) {
	out, err := Run(Spec{Benchmark: "MM-small", Scheme: "threshold:0"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.OffloadedFraction != 1 {
		t.Errorf("offload = %v, want 1", out.Result.OffloadedFraction)
	}
	if out.Threshold != 0 {
		t.Errorf("threshold = %d, want 0", out.Threshold)
	}
}

func TestSweepThresholdsSpanOffloadRange(t *testing.T) {
	spec := Spec{Benchmark: "MM-small"}
	app, err := spec.buildApp()
	if err != nil {
		t.Fatal(err)
	}
	ts := SweepThresholds(app)
	if len(ts) < 3 {
		t.Fatalf("sweep has only %d points", len(ts))
	}
	seen := map[int]bool{}
	for _, v := range ts {
		if seen[v] {
			t.Errorf("duplicate threshold %d", v)
		}
		seen[v] = true
	}
	// The sweep must include a near-zero-offload point and a
	// full-offload point.
	lo, hi := 1.0, 0.0
	for _, v := range ts {
		f := app.OffloadFractionAt(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if lo > 0.05 {
		t.Errorf("lightest sweep point offloads %.2f, want ~0", lo)
	}
	if hi < 0.95 {
		t.Errorf("heaviest sweep point offloads %.2f, want ~1", hi)
	}
}

func TestOfflineSearchPicksBest(t *testing.T) {
	out, err := Run(Spec{Benchmark: "MM-small", Scheme: SchemeOffline})
	if err != nil {
		t.Fatal(err)
	}
	// Verify it is at least as good as the endpoints of the sweep.
	for _, s := range []string{"threshold:0", SchemeFlat} {
		o, err := Run(Spec{Benchmark: "MM-small", Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Cycles > o.Result.Cycles {
			t.Errorf("offline (%d cycles) worse than %s (%d cycles)", out.Result.Cycles, s, o.Result.Cycles)
		}
	}
	if out.Spec.Scheme != SchemeOffline {
		t.Errorf("scheme = %s", out.Spec.Scheme)
	}
}

// Paper shape: MM strongly prefers offloading (Observation 3).
func TestShapeMMPrefersOffload(t *testing.T) {
	flat, err := Run(Spec{Benchmark: "MM-small", Scheme: SchemeFlat})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Run(Spec{Benchmark: "MM-small", Scheme: "threshold:0"})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(flat.Result.Cycles) / float64(dp.Result.Cycles)
	if speedup < 2 {
		t.Errorf("MM-small full offload speedup = %.2f, want >= 2 (paper: ~2.5x)", speedup)
	}
}

// Paper shape: JOIN-uniform prefers processing in the parent threads
// (Observation 2).
func TestShapeJoinUniformPrefersParent(t *testing.T) {
	flat, err := Run(Spec{Benchmark: "JOIN-uniform", Scheme: SchemeFlat})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Run(Spec{Benchmark: "JOIN-uniform", Scheme: "threshold:0"})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Result.Cycles >= dp.Result.Cycles {
		t.Errorf("flat (%d) should beat full-DP (%d) on the balanced join",
			flat.Result.Cycles, dp.Result.Cycles)
	}
}

// Paper headline: SPAWN beats Baseline-DP and lands between baseline and
// offline on a DP-friendly benchmark.
func TestShapeSpawnBeatsBaseline(t *testing.T) {
	baseline, err := Run(Spec{Benchmark: "BFS-graph500", Scheme: SchemeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Run(Spec{Benchmark: "BFS-graph500", Scheme: SchemeSpawn})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Result.Cycles >= baseline.Result.Cycles {
		t.Errorf("SPAWN (%d cycles) should beat Baseline-DP (%d cycles) on BFS-graph500",
			sp.Result.Cycles, baseline.Result.Cycles)
	}
	// And with far fewer child kernels (the paper reports -73% average).
	if sp.Result.ChildKernels*2 > baseline.Result.ChildKernels {
		t.Errorf("SPAWN launched %d kernels vs baseline %d: expected a large reduction",
			sp.Result.ChildKernels, baseline.Result.ChildKernels)
	}
}

func TestFig5RendersMonotoneOffload(t *testing.T) {
	rs, err := (&Pool{Workers: 1}).Fig5("MM-small")
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	prev := -1.0
	for _, p := range r.Points {
		if p.Offload < prev {
			t.Errorf("offload not sorted: %v", r.Points)
			break
		}
		prev = p.Offload
	}
	if !strings.Contains(r.Render(), "MM-small") {
		t.Error("render missing benchmark name")
	}
}

func TestFig12ChildCTAUniformity(t *testing.T) {
	// BFS children run one edge per thread with identical per-item ops,
	// so their CTA execution times cluster (the paper's Figure 12
	// premise; MM clusters less here because our sparse rows vary the
	// dot-product length — see EXPERIMENTS.md).
	out, err := Run(Spec{Benchmark: "BFS-citation", Scheme: SchemeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	h := out.Result.ChildCTAExec
	if h.N() == 0 {
		t.Fatal("no child CTA samples")
	}
	frac := h.FractionWithin(h.Mean(), 0.25)
	if frac < 0.5 {
		t.Errorf("only %.0f%% of child CTAs within 25%% of mean; expected clustering", frac*100)
	}
}

func TestSeriesRunProducesSamples(t *testing.T) {
	out, err := Run(Spec{Benchmark: "MM-small", Scheme: SchemeBaseline, SampleInterval: 2000})
	if err != nil {
		t.Fatal(err)
	}
	r := out.Result
	if len(r.ParentCTASeries.Values) == 0 || len(r.ChildCTASeries.Values) == 0 || len(r.UtilSeries.Values) == 0 {
		t.Fatal("empty series")
	}
	if !strings.HasPrefix(renderSeries("MM-small", SchemeBaseline, 2000, r), "MM-small / baseline (one sample per 2000 cycles") {
		t.Error("render missing benchmark, scheme or interval")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "x", Values: []float64{1.5, 200}}},
		Notes:   []string{"n1"},
	}
	s := tb.Render()
	for _, want := range []string{"test", "a", "x", "1.500", "200", "n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestOutcomeSummary(t *testing.T) {
	out, err := Run(Spec{Benchmark: "MM-small", Scheme: SchemeDTBL})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Summary()
	if !strings.Contains(s, "MM-small/dtbl") || !strings.Contains(s, "DTBL groups") {
		t.Errorf("summary = %q", s)
	}
}

func TestAllBenchmarksCompleteUnderEveryScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("long: full benchmark x scheme matrix")
	}
	for _, b := range append(workloads.Names(), "SA-elegans") {
		for _, s := range []string{SchemeFlat, SchemeBaseline, SchemeSpawn, SchemeDTBL} {
			out, err := Run(Spec{Benchmark: b, Scheme: s})
			if err != nil {
				t.Errorf("%s/%s: %v", b, s, err)
				continue
			}
			if out.Result.Cycles == 0 {
				t.Errorf("%s/%s: zero cycles", b, s)
			}
			if out.Result.Occupancy <= 0 || out.Result.Occupancy > 1 {
				t.Errorf("%s/%s: occupancy %v out of range", b, s, out.Result.Occupancy)
			}
		}
	}
}

func TestAblationVariantsComplete(t *testing.T) {
	out, err := ablation(&Pool{Workers: 1}, &Memo{}, "MM-small")
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for _, line := range strings.Split(out.Text, "\n")[2:] {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		rows++
		if v, err := strconv.ParseFloat(f[1], 64); err != nil || v <= 0 {
			t.Errorf("%s: speedup %q, want a positive number", f[0], f[1])
		}
	}
	if rows != 6 {
		t.Fatalf("ablation rows = %d, want 6:\n%s", rows, out.Text)
	}
	if !strings.Contains(out.Text, "  coldcap-off ") {
		t.Error("render missing variant labels")
	}
}

func TestRunCustomPolicy(t *testing.T) {
	out, err := Run(Spec{
		Benchmark:  "MM-small",
		MakePolicy: func(config.GPU) kernel.Policy { return runtime.Flat{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.ChildKernels != 0 {
		t.Errorf("flat policy launched %d kernels", out.Result.ChildKernels)
	}
}

func TestCSVExports(t *testing.T) {
	var buf strings.Builder
	tb := &Table{Columns: []string{"a"}, Rows: []Row{{Label: "x", Values: []float64{1.25}}}}
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "benchmark,a") || !strings.Contains(buf.String(), "x,1.25") {
		t.Errorf("table csv = %q", buf.String())
	}

	buf.Reset()
	f5 := &Fig5Result{Benchmark: "b", Points: []Fig5Point{{Threshold: 2, Offload: 0.5, Speedup: 1.5}}}
	if err := f5.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "b,2,0.5,1.5") {
		t.Errorf("fig5 csv = %q", buf.String())
	}
}

// defRecorder forwards to a Threshold policy and records every launch
// candidate's Def.
type defRecorder struct {
	runtime.Threshold
	defs map[*kernel.Def]int
}

func (r *defRecorder) Decide(site *kernel.LaunchSite) kernel.Decision {
	r.defs[site.Candidate.Def]++
	return r.Threshold.Decide(site)
}

// TestChildCTASizeReachesSharedChildDef runs Figure 7's override through
// the harness: with Spec.ChildCTASize 64, every device launch must use
// the app's one child Def, built after the override, with 64-thread
// CTAs.
func TestChildCTASizeReachesSharedChildDef(t *testing.T) {
	rec := &defRecorder{Threshold: runtime.Threshold{T: 16}, defs: map[*kernel.Def]int{}}
	out, err := Run(Spec{
		Benchmark:    "BFS-citation",
		Scheme:       SchemeBaseline,
		ChildCTASize: 64,
		MakePolicy:   func(config.GPU) kernel.Policy { return rec },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.ChildKernels == 0 {
		t.Fatal("no device launches")
	}
	if len(rec.defs) != 1 {
		t.Fatalf("launch candidates used %d child Defs, want the app's one", len(rec.defs))
	}
	for d := range rec.defs {
		if d.CTAThreads != 64 {
			t.Errorf("child Def %s has %d-thread CTAs, want the override's 64", d.Name, d.CTAThreads)
		}
	}
}
