package stats

import (
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatalf("empty mean = %v, want 0", m.Value())
	}
	for _, v := range []float64{1, 2, 3, 4} {
		m.Add(v)
	}
	if m.Value() != 2.5 {
		t.Errorf("mean = %v, want 2.5", m.Value())
	}
	if m.N() != 4 {
		t.Errorf("N = %d, want 4", m.N())
	}
}

func TestWindowedMeanBasic(t *testing.T) {
	w := NewWindowedMean(4)
	// Fill one full window with constant 8 -> average 8.
	for c := uint64(0); c < 4; c++ {
		w.Observe(c, 8)
	}
	if w.Warm() {
		t.Fatal("window should not be warm before crossing the boundary")
	}
	w.Observe(4, 2) // crosses boundary, closes first window
	if !w.Warm() {
		t.Fatal("window should be warm after boundary crossing")
	}
	if got := w.Value(); got != 8 {
		t.Errorf("first-window average = %d, want 8", got)
	}
}

func TestWindowedMeanSpanAcrossBoundary(t *testing.T) {
	w := NewWindowedMean(4)
	w.ObserveSpan(0, 8, 4) // spans two full windows of constant 4
	w.Observe(8, 0)
	if got := w.Value(); got != 4 {
		t.Errorf("average = %d, want 4", got)
	}
}

func TestWindowedMeanEmptyGap(t *testing.T) {
	w := NewWindowedMean(4)
	w.Observe(0, 8)
	// Jump far ahead: intermediate windows were empty, value resets to 0.
	w.Observe(100, 1)
	if got := w.Value(); got != 0 {
		t.Errorf("average after long gap = %d, want 0", got)
	}
}

func TestWindowedMeanRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWindowedMean(3) should panic")
		}
	}()
	NewWindowedMean(3)
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 10)
	tw.Set(10, 0) // level 10 for cycles 0..10
	if got := tw.Average(10); got != 10 {
		t.Errorf("average = %v, want 10", got)
	}
	tw.Set(20, 30) // level 0 for 10..20
	if got := tw.Average(20); got != 5 {
		t.Errorf("average = %v, want 5", got)
	}
	// Extend to 40: level 30 for 20..40 -> (100 + 0 + 600)/40 = 17.5
	if got := tw.Average(40); got != 17.5 {
		t.Errorf("average = %v, want 17.5", got)
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var tw TimeWeighted
	tw.Add(0, 3)
	tw.Add(10, -1)
	if got := tw.Level(); got != 2 {
		t.Errorf("level = %d, want 2", got)
	}
}

func TestHistogramQuantileAndPDF(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := h.Quantile(1.0); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	pdf := h.PDF(0, 100, 10)
	total := 0.0
	for _, p := range pdf {
		total += p
	}
	if !almostEqual(total, 1.0, 1e-9) {
		t.Errorf("PDF mass = %v, want 1", total)
	}
}

func TestHistogramFractionWithin(t *testing.T) {
	var h Histogram
	for i := 0; i < 95; i++ {
		h.Add(100)
	}
	for i := 0; i < 5; i++ {
		h.Add(200)
	}
	got := h.FractionWithin(100, 0.1)
	if !almostEqual(got, 0.95, 1e-9) {
		t.Errorf("FractionWithin = %v, want 0.95", got)
	}
}

func TestCDF(t *testing.T) {
	events := []uint64{5, 10, 10, 30}
	cdf := CDF(events, 10, 30)
	want := []float64{0, 3, 3, 4}
	if len(cdf) != len(want) {
		t.Fatalf("len = %d, want %d", len(cdf), len(want))
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Errorf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); !almostEqual(got, 4, 1e-9) {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	if got := GeoMean([]float64{1, -1}); got != 0 {
		t.Errorf("GeoMean with nonpositive = %v, want 0", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("Sparkline(nil) = %q, want empty", got)
	}
	got := Sparkline([]float64{0, 1})
	if len([]rune(got)) != 2 {
		t.Errorf("Sparkline length = %d runes, want 2", len([]rune(got)))
	}
}

// Property: CDF is monotonically non-decreasing and ends at len(events).
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		events := make([]uint64, len(raw))
		var max uint64
		for i, r := range raw {
			events[i] = uint64(r)
			if uint64(r) > max {
				max = uint64(r)
			}
		}
		cdf := CDF(events, 7, max)
		prev := -1.0
		for _, v := range cdf {
			if v < prev {
				return false
			}
			prev = v
		}
		return len(cdf) == 0 || cdf[len(cdf)-1] <= float64(len(events))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TimeWeighted average is bounded by min/max level.
func TestTimeWeightedBoundedProperty(t *testing.T) {
	f := func(levels []uint8) bool {
		if len(levels) == 0 {
			return true
		}
		var tw TimeWeighted
		lo, hi := int64(levels[0]), int64(levels[0])
		for i, l := range levels {
			v := int64(l)
			tw.Set(uint64(i*10), v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		end := uint64(len(levels) * 10)
		avg := tw.Average(end)
		return avg >= float64(lo)-1e-9 && avg <= float64(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevelSeriesForwardFill(t *testing.T) {
	s := NewLevelSeries(10)
	s.Set(0, 2)
	s.Set(35, 5) // buckets 1,2 forward-fill with 2
	s.Finish(60)
	want := []float64{2, 2, 2, 5, 5, 5, 5}
	if len(s.Values) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(s.Values), len(want), s.Values)
	}
	for i := range want {
		if s.Values[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, s.Values[i], want[i])
		}
	}
	if s.Len() != 7 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestLevelSeriesZeroInterval(t *testing.T) {
	s := NewLevelSeries(0) // clamps to 1
	s.Set(3, 1)
	if s.Interval != 1 || s.Len() != 4 {
		t.Errorf("interval %d len %d", s.Interval, s.Len())
	}
}

// Regression: Average with endCycle before the last recorded change must
// divide the accumulated integral by endCycle, not blow up or return the
// partial-window value (the old guard nested a dead endCycle==0 check
// inside this branch).
func TestTimeWeightedAverageBeforeLastCycle(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 2)
	tw.Set(10, 5) // integral now 2*10 = 20, lastCycle = 10
	if got := tw.Average(5); got != 4 {
		t.Errorf("Average(5) = %v, want 20/5 = 4", got)
	}
	// At exactly lastCycle nothing extrapolates: 20/10.
	if got := tw.Average(10); got != 2 {
		t.Errorf("Average(10) = %v, want 2", got)
	}
}

func TestTimeWeightedAverageZeroAndUnstarted(t *testing.T) {
	var tw TimeWeighted
	if got := tw.Average(100); got != 0 {
		t.Errorf("unstarted Average(100) = %v, want 0", got)
	}
	tw.Set(0, 7)
	if got := tw.Average(0); got != 0 {
		t.Errorf("Average(0) = %v, want 0", got)
	}
}

// ObserveSpan fast-forward: after a gap of fully empty windows the value
// resets to 0 and the window start realigns to the observation's window.
func TestWindowedMeanFastForwardRealigns(t *testing.T) {
	w := NewWindowedMean(8)
	w.ObserveSpan(0, 8, 16) // one full window of 16
	w.Observe(8, 16)
	if got := w.Value(); got != 16 {
		t.Fatalf("first window average = %d, want 16", got)
	}
	// Jump far ahead: windows [16,24), [24,32), ... were empty.
	w.Observe(100, 3)
	if got := w.Value(); got != 0 {
		t.Errorf("average after empty-window gap = %d, want 0", got)
	}
	if want := uint64(100) &^ 7; w.start != want {
		t.Errorf("window start after fast-forward = %d, want %d", w.start, want)
	}
	if !w.Warm() {
		t.Error("fast-forward should not reset warm")
	}
	// The window containing cycle 100 accumulates normally afterwards.
	w.ObserveSpan(101, 3, 8)
	w.Observe(104, 0) // closes window [96,104): 3 + 3*8 = 27 -> 27>>3 = 3
	if got := w.Value(); got != 3 {
		t.Errorf("post-gap window average = %d, want 3", got)
	}
}

func TestSparklineEdgeCases(t *testing.T) {
	if got := Sparkline([]float64{}); got != "" {
		t.Errorf("Sparkline(empty) = %q, want empty", got)
	}
	// A single value has lo == hi: must render the lowest tick, not panic.
	if got := Sparkline([]float64{42}); got != "▁" {
		t.Errorf("Sparkline(single) = %q, want %q", got, "▁")
	}
	// Constant series renders all-lowest ticks.
	if got := Sparkline([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Errorf("Sparkline(constant) = %q, want %q", got, "▁▁▁")
	}
	// Extremes map to the first and last tick.
	got := []rune(Sparkline([]float64{0, 7}))
	if got[0] != '▁' || got[1] != '█' {
		t.Errorf("Sparkline(0,7) = %q, want low then high tick", string(got))
	}
}

func TestCDFEdgeCases(t *testing.T) {
	// No events: flat zero line, one bucket per interval plus the origin.
	cdf := CDF(nil, 10, 30)
	if len(cdf) != 4 {
		t.Fatalf("len = %d, want 4", len(cdf))
	}
	for i, v := range cdf {
		if v != 0 {
			t.Errorf("bucket %d = %v, want 0", i, v)
		}
	}
	// interval 0 clamps to 1.
	cdf = CDF([]uint64{0, 1}, 0, 2)
	if len(cdf) != 3 || cdf[2] != 2 {
		t.Errorf("interval-0 CDF = %v, want len 3 ending at 2", cdf)
	}
	// Events after endCycle are not counted; unsorted input is sorted.
	cdf = CDF([]uint64{50, 5, 500}, 10, 60)
	if cdf[len(cdf)-1] != 2 {
		t.Errorf("CDF end = %v, want 2 (event at 500 is past endCycle)", cdf[len(cdf)-1])
	}
	if cdf[0] != 0 || cdf[1] != 1 {
		t.Errorf("CDF head = %v %v, want 0 then 1", cdf[0], cdf[1])
	}
}

// TestHistogramAddAllocatesOnce feeds a histogram 2^16 samples: they
// take about their own size in heap, where appending to one slice took
// about five times that.
func TestHistogramAddAllocatesOnce(t *testing.T) {
	const n = 1 << 16
	var h Histogram
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		h.Add(float64(i))
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*8*5/4); got > limit {
		t.Fatalf("%d Adds allocated %d bytes, want at most %d", n, got, limit)
	}
	if h.N() != n || h.Quantile(1) != n-1 {
		t.Fatalf("N %d, max %v after %d Adds", h.N(), h.Quantile(1), n)
	}
}

// TestHistogramReadsSeeEveryAdd interleaves Adds with reads and
// serialization: every statistic and the JSON match those of the
// samples kept in one slice, in the order added.
func TestHistogramReadsSeeEveryAdd(t *testing.T) {
	var h Histogram
	var want []float64
	add := func(n int) {
		for range n {
			v := float64((len(want)*7919)%1000) / 3
			h.Add(v)
			want = append(want, v)
		}
	}
	add(100)
	if h.Mean() == 0 {
		t.Fatal("zero mean")
	}
	add(20_000)
	h.Quantile(0.9) // sorts the samples so far
	sort.Float64s(want)
	add(5)
	got, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := json.Marshal(struct {
		Samples []float64 `json:"samples"`
	}{want})
	if string(got) != string(ref) {
		t.Fatal("JSON differs from the samples in the order added")
	}
	var r Histogram
	r.samples = want
	if h.N() != len(want) || h.Mean() != r.Mean() || h.FractionWithin(100, 0.1) != r.FractionWithin(100, 0.1) {
		t.Fatalf("histogram disagrees with its samples: N %d/%d mean %v/%v", h.N(), len(want), h.Mean(), r.Mean())
	}
	if h.Quantile(0.9) != r.Quantile(0.9) {
		t.Fatalf("p90 %v, its samples' %v", h.Quantile(0.9), r.Quantile(0.9))
	}
}
