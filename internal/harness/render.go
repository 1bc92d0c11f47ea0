package harness

import (
	"fmt"
	"strings"

	"spawnsim/internal/sim"
	"spawnsim/internal/stats"
)

// Render formats a Table for terminal output.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, t.Title)
	fmt.Fprintf(&b, "  %-16s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %14s", c)
	}
	fmt.Fprintln(&b)
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-16s", r.Label)
		for _, v := range r.Values {
			if v == float64(int64(v)) && v >= 100 {
				fmt.Fprintf(&b, " %14.0f", v)
			} else {
				fmt.Fprintf(&b, " %14.3f", v)
			}
		}
		fmt.Fprintln(&b)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Render formats the Figure 5 sweep of one benchmark.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (speedup over flat vs %% of workload offloaded)\n", r.Benchmark)
	for _, p := range r.Points {
		bar := strings.Repeat("#", int(p.Speedup*10+0.5))
		fmt.Fprintf(&b, "  %5.1f%%  T=%-8.0f %6.2fx %s\n", p.Offload*100, p.Threshold, p.Speedup, bar)
	}
	return b.String()
}

// renderSeries formats the concurrency/utilization time series of one
// sampled run (Figures 6, 19).
func renderSeries(bench, scheme string, interval uint64, r *sim.Result) string {
	parent, child := r.ParentCTASeries.Values, r.ChildCTASeries.Values
	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s (one sample per %d cycles, %d cycles total)\n",
		bench, scheme, interval, uint64(r.Cycles))
	fmt.Fprintf(&b, "  parent CTAs %s\n", stats.Sparkline(parent))
	fmt.Fprintf(&b, "  child CTAs  %s\n", stats.Sparkline(child))
	fmt.Fprintf(&b, "  utilization %s\n", stats.Sparkline(r.UtilSeries.Values))
	maxP, maxC := 0.0, 0.0
	for _, v := range parent {
		if v > maxP {
			maxP = v
		}
	}
	for _, v := range child {
		if v > maxC {
			maxC = v
		}
	}
	fmt.Fprintf(&b, "  peak concurrent parent CTAs %.0f, child CTAs %.0f (hardware limit 208)\n", maxP, maxC)
	return b.String()
}

// Summary renders the headline metrics of one outcome.
func (o *Outcome) Summary() string {
	r := o.Result
	return fmt.Sprintf(
		"%s/%s: %d cycles, occupancy %.2f, L2 hit %.2f, %d child kernels (+%d DTBL groups), "+
			"%.0f%% of workload offloaded, mean GMU queue latency %.0f cycles",
		o.Spec.Benchmark, o.Spec.Scheme, r.Cycles, r.Occupancy, r.L2HitRate,
		r.ChildKernels, r.DTBLGroups, r.OffloadedFraction*100, r.QueueLatency)
}
