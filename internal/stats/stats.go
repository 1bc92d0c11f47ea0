// Package stats provides the small statistics toolkit used by the
// simulator and the experiment harness: running means, windowed averages,
// piecewise time integrals, histograms, and time series.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean accumulates a running arithmetic mean without storing samples.
type Mean struct {
	n   uint64
	sum float64
}

// Add folds one sample into the mean.
func (m *Mean) Add(v float64) { m.n++; m.sum += v }

// N reports the number of samples.
func (m *Mean) N() uint64 { return m.n }

// Value returns the mean, or 0 if no samples were added.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// WindowedMean reproduces the SPAWN paper's metric averaging: samples are
// accumulated over a fixed cycle window (a power of two); at window end the
// accumulated sum is right-shifted by log2(window) to form the average that
// is then used throughout the next window (Section IV-B).
type WindowedMean struct {
	shift  uint
	window uint64
	acc    uint64
	start  uint64 // cycle at which the current window began
	cur    uint64 // average from the last completed window
	warm   bool   // at least one window completed
}

// NewWindowedMean creates a windowed mean over `window` cycles.
// window must be a power of two.
func NewWindowedMean(window uint) *WindowedMean {
	if window == 0 || window&(window-1) != 0 {
		panic(fmt.Sprintf("stats: window %d is not a power of two", window))
	}
	shift := uint(0)
	for w := window; w > 1; w >>= 1 {
		shift++
	}
	return &WindowedMean{shift: shift, window: uint64(window)}
}

// Observe adds the instantaneous value v for the given cycle, rolling the
// window forward when the cycle crosses a window boundary. Cycles must be
// non-decreasing across calls; gaps are filled by integrating v backwards
// is NOT done — callers integrate piecewise via ObserveSpan instead.
func (w *WindowedMean) Observe(cycle uint64, v uint64) { w.ObserveSpan(cycle, 1, v) }

// ObserveSpan adds value v held constant for `span` cycles starting at
// `cycle`. Window boundaries inside the span are handled.
func (w *WindowedMean) ObserveSpan(cycle, span, v uint64) {
	for span > 0 {
		end := w.start + w.window
		if cycle >= end {
			// Close out the finished window.
			w.cur = w.acc >> w.shift
			w.warm = true
			w.acc = 0
			w.start = end
			// Fast-forward over fully empty windows.
			if cycle >= w.start+w.window {
				w.cur = 0
				w.start = cycle &^ (w.window - 1)
			}
			continue
		}
		take := end - cycle
		if take > span {
			take = span
		}
		w.acc += v * take
		cycle += take
		span -= take
	}
}

// Value returns the average from the last completed window.
func (w *WindowedMean) Value() uint64 { return w.cur }

// Warm reports whether at least one full window has completed.
func (w *WindowedMean) Warm() bool { return w.warm }

// TimeWeighted integrates a piecewise-constant quantity over simulated
// time, e.g. "concurrent child CTAs". Update it whenever the level changes.
type TimeWeighted struct {
	level     int64
	lastCycle uint64
	integral  float64
	started   bool
}

// Set records that the level changed to v at the given cycle.
func (t *TimeWeighted) Set(cycle uint64, v int64) {
	if t.started && cycle > t.lastCycle {
		t.integral += float64(t.level) * float64(cycle-t.lastCycle)
	}
	t.level = v
	t.lastCycle = cycle
	t.started = true
}

// Add adjusts the level by delta at the given cycle.
func (t *TimeWeighted) Add(cycle uint64, delta int64) { t.Set(cycle, t.level+delta) }

// Level returns the current level.
func (t *TimeWeighted) Level() int64 { return t.level }

// Average returns the time-weighted average level from cycle 0 up to
// endCycle. When endCycle precedes the last recorded change, the
// integral accumulated so far (which extends to lastCycle) is still
// divided by endCycle — callers are expected to pass an endCycle at or
// after the final Set.
func (t *TimeWeighted) Average(endCycle uint64) float64 {
	if !t.started || endCycle == 0 {
		return 0
	}
	integral := t.integral
	if endCycle > t.lastCycle {
		integral += float64(t.level) * float64(endCycle-t.lastCycle)
	}
	return integral / float64(endCycle)
}

// Histogram is a fixed-width bucket histogram over float64 samples,
// retaining samples for exact quantiles and PDFs.
type Histogram struct {
	samples []float64
	sorted  bool
}

// MarshalJSON serializes the retained samples so results carrying a
// histogram round-trip through the harness's content-addressed store.
// Samples are written in their current in-memory order; every derived
// statistic (Mean, Quantile, PDF, FractionWithin) is order-independent
// or sorts internally, so a decoded histogram reproduces the original's
// outputs exactly.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Samples []float64 `json:"samples"`
	}{h.samples})
}

// UnmarshalJSON restores a histogram serialized by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var raw struct {
		Samples []float64 `json:"samples"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("stats: decode histogram: %w", err)
	}
	h.samples = raw.Samples
	h.sorted = false
	return nil
}

// Add records one sample.
func (h *Histogram) Add(v float64) { h.samples = append(h.samples, v); h.sorted = false }

// N reports the sample count.
func (h *Histogram) N() int { return len(h.samples) }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// FractionWithin returns the fraction of samples v with |v-center| <= tol*center.
// It reproduces the paper's Figure 12 statistic ("95% of child CTAs have
// their execution time within 10% of the average").
func (h *Histogram) FractionWithin(center, tol float64) float64 {
	if len(h.samples) == 0 || center == 0 {
		return 0
	}
	n := 0
	for _, v := range h.samples {
		if math.Abs(v-center) <= tol*center {
			n++
		}
	}
	return float64(n) / float64(len(h.samples))
}

// PDF buckets samples into `bins` equal-width bins over [lo, hi] and
// returns per-bin probability mass. Samples outside the range clamp to the
// edge bins.
func (h *Histogram) PDF(lo, hi float64, bins int) []float64 {
	out := make([]float64, bins)
	if len(h.samples) == 0 || bins == 0 || hi <= lo {
		return out
	}
	w := (hi - lo) / float64(bins)
	for _, v := range h.samples {
		i := int((v - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		out[i]++
	}
	for i := range out {
		out[i] /= float64(len(h.samples))
	}
	return out
}

// CDF turns a sequence of event cycles into a cumulative count sampled at
// `interval`, ending at endCycle (the Figure 20 rendering).
func CDF(eventCycles []uint64, interval, endCycle uint64) []float64 {
	if interval == 0 {
		interval = 1
	}
	sorted := append([]uint64(nil), eventCycles...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := int(endCycle/interval) + 1
	out := make([]float64, n)
	j := 0
	for i := 0; i < n; i++ {
		limit := uint64(i) * interval
		for j < len(sorted) && sorted[j] <= limit {
			j++
		}
		out[i] = float64(j)
	}
	return out
}

// GeoMean returns the geometric mean of vs (which must all be positive);
// it is the paper's averaging rule for speedups.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// Sparkline renders values as a unicode mini-chart (for CLI output).
func Sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vs {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[i])
	}
	return b.String()
}

// LevelSeries samples a piecewise-constant level into fixed-size cycle
// buckets, forward-filling the level between change points. It renders
// quantities like "concurrent CTAs over time" (Figures 6 and 19).
type LevelSeries struct {
	Interval uint64
	Values   []float64
	last     float64
	started  bool
}

// NewLevelSeries creates a level series sampled every `interval` cycles.
func NewLevelSeries(interval uint64) *LevelSeries {
	if interval == 0 {
		interval = 1
	}
	return &LevelSeries{Interval: interval}
}

func (s *LevelSeries) fillTo(bucket int) {
	for len(s.Values) <= bucket {
		s.Values = append(s.Values, s.last)
	}
}

// Set records that the level changed to v at the given cycle.
func (s *LevelSeries) Set(cycle uint64, v float64) {
	bucket := int(cycle / s.Interval)
	s.fillTo(bucket)
	s.Values[bucket] = v
	s.last = v
	s.started = true
}

// Finish forward-fills the series up to endCycle.
func (s *LevelSeries) Finish(endCycle uint64) {
	s.fillTo(int(endCycle / s.Interval))
}

// Len reports the number of buckets.
func (s *LevelSeries) Len() int { return len(s.Values) }
