package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// metric is one named number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timedPasses is how many timed passes fill seconds on the reference host.
func (w *workload) timedPasses(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/w.passSeconds)))
}

// runE2E measures the workload untraced: a warm-up pass on the Table I
// inputs, whose ops must match the golden digests, then timed passes on
// the seed's inputs, back to back (a closed loop with one client). Every
// pass rebuilds its inputs and apps. Host times are reported at the
// reference host's speed: divided by the run's host-clock slowdown.
func runE2E(r *runner, seed int64, seconds int) (map[string]metric, error) {
	w := r.w
	native := hooks{observe: w.observed}
	if _, err := r.pass(defaultSeed, native, nil, func(*prepared, *opOut) {}); err != nil {
		return nil, err
	}

	var (
		opMs, passS, setupS, heapMB []float64
		opTotal                     time.Duration
		cycles                      uint64
		perBench                    = map[string][]float64{}
	)
	heap := watchHeap()
	defer heap.stop()
	for range w.timedPasses(seconds) {
		var ops time.Duration
		heap.take()
		p, err := r.pass(seed, native, nil, func(p *prepared, o *opOut) {
			ms := float64(o.total) / 1e6
			opMs = append(opMs, ms)
			perBench[p.name] = append(perBench[p.name], ms)
			ops += o.total
			cycles += uint64(o.res.Cycles)
		})
		if err != nil {
			return nil, err
		}
		opTotal += ops
		setupS = append(setupS, p.setup.Seconds())
		passS = append(passS, (p.setup + ops).Seconds())
		heapMB = append(heapMB, float64(heap.take())/(1<<20))
	}
	if len(opMs) == 0 {
		return nil, fmt.Errorf("%s: every op failed", w.name)
	}

	slow := r.clock.slowdown()
	fmt.Fprintf(os.Stderr, "%s seed %d: %d timed passes, %d timed ops, host slowdown %.3f; measured:\n",
		w.name, seed, len(passS), len(opMs), slow)
	for _, n := range sortedKeys(perBench) {
		fmt.Fprintf(os.Stderr, "  %-14s op p50 %8.1f ms\n", n, quantile(perBench[n], 0.5))
	}
	fmt.Fprintf(os.Stderr, "  %-14s        %8.3f s\n  at reference speed:\n", "pass p50", quantile(passS, 0.5))
	return map[string]metric{
		"sim_cycles_per_s":  {float64(cycles) / opTotal.Seconds() / 1e6 * slow, "Mcycles/s"},
		"op_ms_p50":         {quantile(opMs, 0.5) / slow, "ms"},
		"op_ms_p90":         {quantile(opMs, 0.9) / slow, "ms"},
		"pass_s":            {quantile(passS, 0.5) / slow, "s"},
		"setup_s":           {quantile(setupS, 0.5) / slow, "s"},
		"peak_live_heap_mb": {quantile(heapMB, 0.5), "MB"},
	}, nil
}

// heapPeak keeps the largest live heap a GC cycle has found since the
// last take. A finalizer on a sentinel object reads it after each cycle and
// arms a new sentinel, so every cycle is seen and no op's peak is missed
// for want of a GC landing near it.
type heapPeak struct {
	max     atomic.Uint64
	stopped atomic.Bool
}

func watchHeap() *heapPeak {
	h := &heapPeak{}
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(new([64]byte), func(*[64]byte) {
		live := liveHeap()
		for m := h.max.Load(); live > m && !h.max.CompareAndSwap(m, live); m = h.max.Load() {
		}
		if !h.stopped.Load() {
			h.arm()
		}
	})
}

// take returns the peak since the last take and starts a new one.
func (h *heapPeak) take() uint64 { return h.max.Swap(0) }

// stop ends the watch.
func (h *heapPeak) stop() { h.stopped.Store(true) }

// quantile returns the p-quantile of xs (0 < p < 1) by the method of
// Python's statistics.quantiles (exclusive, its default): position
// p*(n+1) among the 1-based ranks, interpolated between ranks 1..n.
// xs is not modified.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	j := min(max(int(pos), 1), n-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
