package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"spawnsim/internal/harness"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

// The harness scheme each workload's policy corresponds to.
var harnessScheme = map[string]string{
	"parent-only":    harness.SchemeFlat,
	"baseline-dp":    harness.SchemeBaseline,
	"dtbl-aggregate": harness.SchemeDTBL,
	"spawn-observed": harness.SchemeSpawn,
}

func TestTableIMatchesRegistry(t *testing.T) {
	var names []string
	for _, e := range tableI {
		names = append(names, e.name)
		got := e.gen(defaultSeed)()
		b, err := workloads.ByName(e.name)
		if err != nil {
			t.Fatal(err)
		}
		want := b.Make()
		if err := got.Normalize(); err != nil {
			t.Fatal(err)
		}
		if err := want.Normalize(); err != nil {
			t.Fatal(err)
		}
		if got.Elements != want.Elements || got.TotalWork() != want.TotalWork() || got.DefaultThreshold != want.DefaultThreshold {
			t.Errorf("%s: elements/work/threshold %d/%d/%d, registry %d/%d/%d", e.name,
				got.Elements, got.TotalWork(), got.DefaultThreshold, want.Elements, want.TotalWork(), want.DefaultThreshold)
		}
	}
	if !slices.Equal(names, workloads.Names()) {
		t.Errorf("benchmarks %v, registry %v", names, workloads.Names())
	}
}

// onePass runs one pass of the workload restricted to MM-small and returns
// the op's digests.
func onePass(t *testing.T, w workload, h hooks, golden map[string]string) (map[string]string, *runner) {
	t.Helper()
	w.benches = []string{"MM-small"}
	r := newRunner(&w, golden, nil)
	var ds map[string]string
	_, err := r.pass(defaultSeed, h, nil, func(p *prepared, o *opOut) {
		var err error
		if ds, err = digests(w.name, p.name, o); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, r
}

func TestOpMatchesHarness(t *testing.T) {
	for _, w := range suite {
		got, _ := onePass(t, w, hooks{observe: w.observed}, nil)
		spec := harness.Spec{Benchmark: "MM-small", Scheme: harnessScheme[w.name]}
		if w.observed {
			spec.Metrics = metrics.NewRegistry()
			spec.Profile = &profile.Options{}
			spec.TraceSinks = []trace.Sink{trace.NewJSONL(new(byteCounter))}
		}
		out, err := harness.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := digests(w.name, "MM-small", &opOut{res: out.Result, snap: out.Metrics, prof: out.Profile})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: digests %v, harness %v", w.name, got, want)
		}
		for k, d := range want {
			if got[k] != d {
				t.Errorf("%s digest %s, harness %s", k, got[k], d)
			}
		}
	}
}

func TestDecoratorsKeepDigests(t *testing.T) {
	w := suite[len(suite)-1] // spawn-observed: every hook fires
	plain, _ := onePass(t, w, hooks{observe: true}, nil)
	decorated, _ := onePass(t, w, hooks{observe: true, decorate: true}, nil)
	for k, d := range plain {
		if decorated[k] != d {
			t.Errorf("%s: decorated digest %s, plain %s", k, decorated[k], d)
		}
	}
}

func TestGoldenCatchesChange(t *testing.T) {
	golden, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	w := suite[0]
	if _, r := onePass(t, w, hooks{}, golden); r.failed != 0 {
		t.Fatalf("committed golden: %d of %d ops failed", r.failed, r.attempted)
	}
	key := w.name + "/MM-small/result"
	golden[key] = strings.Repeat("0", 64)
	if _, r := onePass(t, w, hooks{}, golden); r.failed != 1 {
		t.Errorf("corrupted golden: %d of %d ops failed, want 1", r.failed, r.attempted)
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles.
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 0.25, 2.75}, {ten, 0.5, 5.5}, {ten, 0.75, 8.25}, {ten, 0.9, 9.9}, {ten, 0.1, 1.1},
		{[]float64{3, 1}, 0.25, 0.5}, {[]float64{3, 1}, 0.75, 3.5},
		{[]float64{5, 1, 4, 2.5, 3}, 0.25, 1.75}, {[]float64{5, 1, 4, 2.5, 3}, 0.75, 4.5},
		{[]float64{7}, 0.9, 7},
	} {
		if got := quantile(tc.xs, tc.p); abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("quantile reordered its input")
	}
}

func abs(x float64) float64 { return max(x, -x) }

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		change []float64
		bound  float64
		want   string
	}{
		{[]float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, 0.1, "gain"},
		{[]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, 0.1, "no regression"},
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, 0.1, "regression"},
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, 0.001, "unresolved"},
	} {
		if _, got := verdict(parent, tc.change, true, tc.bound); got != tc.want {
			t.Errorf("verdict(%v, bound %v) = %s, want %s", tc.change, tc.bound, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.count
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Errorf("%d of %d samples in spin, want most", inSpin, total)
	}
	if got := pkgOf("spawnsim/internal/sim/mem.(*Cache).Access"); got != "spawnsim/internal/sim/mem" {
		t.Errorf("pkgOf = %q", got)
	}
}

func TestCPUShares(t *testing.T) {
	got := cpuShares([]cpuSample{
		{2, []string{"runtime.mallocgc", "spawnsim/internal/sim/mem.(*Cache).Access", "spawnsim/internal/sim.(*GPU).Run"}},
		{1, []string{"spawnsim/internal/stats.(*Histogram).Add", "spawnsim/internal/sim/gmu.(*GMU).Dispatch"}},
		{1, []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}},
		{4, []string{"encoding/json.Marshal", "main.digests"}},
	})
	want := map[string]float64{"mem": 0.25, "gort.malloc": 0.25, "gmu": 0.125, "gort.gc": 0.125}
	if len(got) != len(want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s share %v, want %v", k, got[k], v)
		}
	}
}

var retained [][]byte

func TestHeapPeakSeesGCCycles(t *testing.T) {
	h := watchHeap()
	defer h.stop()
	h.take()
	retained = make([][]byte, 64)
	for i := range retained {
		retained[i] = make([]byte, 1<<16)
	}
	// Each cycle queues the finalizer; cycle until it has reported one.
	for i := 0; i < 1000 && h.max.Load() < 4<<20; i++ {
		runtime.GC()
	}
	if got := h.take(); got < 4<<20 {
		t.Errorf("peak %d bytes with 4 MiB live", got)
	}
	retained = nil
}
