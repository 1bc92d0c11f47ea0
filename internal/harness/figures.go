package harness

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/stats"
	"spawnsim/internal/workloads"
)

// Row is one rendered output row of an experiment.
type Row struct {
	Label  string
	Values []float64
}

// Table is one rendered experiment: a header and rows.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Fig5Point is one sweep point of Figure 5.
type Fig5Point struct {
	Threshold float64 // the THRESHOLD value used
	Offload   float64 // fraction of workload offloaded (x-axis)
	Speedup   float64 // over flat (y-axis)
}

// Fig5Result is the sweep of one benchmark.
type Fig5Result struct {
	Benchmark string
	Points    []Fig5Point
}

// fig5Specs builds one benchmark's Figure 5 batch: the flat reference
// first, then one spec per sweep threshold.
func fig5Specs(benchmark string) ([]Spec, error) {
	app, err := Spec{Benchmark: benchmark}.buildApp()
	if err != nil {
		return nil, err
	}
	specs := []Spec{{Benchmark: benchmark, Scheme: SchemeFlat}}
	for _, t := range SweepThresholds(app) {
		specs = append(specs, Spec{Benchmark: benchmark, Scheme: fmt.Sprintf("threshold:%d", t)})
	}
	return specs, nil
}

// Fig5 sweeps the parent/child workload distribution of each named
// benchmark (the paper's Figure 5): speedup over flat as a function of
// the fraction of workload offloaded via child kernels. All sweeps run
// as one batch, so the workers stay busy across benchmark boundaries.
func (p *Pool) Fig5(names ...string) ([]*Fig5Result, error) {
	var specs []Spec
	bounds := []int{0} // benchmark i's batch is specs[bounds[i]:bounds[i+1]], flat first
	for _, name := range names {
		bs, err := fig5Specs(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, bs...)
		bounds = append(bounds, len(specs))
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	results := make([]*Fig5Result, len(names))
	for i, name := range names {
		batch := outs[bounds[i]:bounds[i+1]]
		res := &Fig5Result{Benchmark: name}
		for _, out := range batch[1:] {
			res.Points = append(res.Points, Fig5Point{
				Threshold: float64(out.Threshold),
				Offload:   out.Result.OffloadedFraction,
				Speedup:   float64(batch[0].Result.Cycles) / float64(out.Result.Cycles),
			})
		}
		sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].Offload < res.Points[j].Offload })
		results[i] = res
	}
	return results, nil
}

// seriesInterval is the sampling period, in cycles, of the Figure 6
// and 19 timelines.
const seriesInterval = 1000

// fig6 renders the Baseline-DP CTA-concurrency/utilization timeline of
// BFS-graph500 (the paper's Figure 6).
func fig6(p *Pool, _ string) (*Output, error) {
	out, err := p.RunSpec(Spec{Benchmark: "BFS-graph500", Scheme: SchemeBaseline, SampleInterval: seriesInterval})
	if err != nil {
		return nil, err
	}
	if len(out.Result.ChildCTASeries.Values) == 0 {
		return nil, errors.New("empty child-CTA series")
	}
	return &Output{Text: "Figure 6: CTA concurrency and resource utilization (BFS-graph500, Baseline-DP)\n" +
		renderSeries("BFS-graph500", SchemeBaseline, seriesInterval, out.Result)}, nil
}

// fig7 measures speedup sensitivity to the child CTA size: 64, 128 and
// 256 threads/CTA, normalized to 32 (the paper's Figure 7), under
// Baseline-DP.
func fig7(p *Pool, _ string) (*Output, error) {
	t := &Table{
		Title:   "Figure 7: performance sensitivity to child CTA size (normalized to 32 threads/CTA)",
		Columns: []string{"CTA-64", "CTA-128", "CTA-256"},
	}
	names := workloads.Names()
	sizes := []int{32, 64, 128, 256}
	var specs []Spec
	for _, name := range names {
		for _, size := range sizes {
			specs = append(specs, Spec{Benchmark: name, Scheme: SchemeBaseline, ChildCTASize: size})
		}
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		group := outs[i*len(sizes) : (i+1)*len(sizes)]
		base := group[0]
		row := Row{Label: name}
		for _, out := range group[1:] {
			row.Values = append(row.Values, float64(base.Result.Cycles)/float64(out.Result.Cycles))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Text: t.Render()}, nil
}

// fig8 compares one SWQ per child kernel against one SWQ per parent CTA
// (the paper's Figure 8), under Baseline-DP, reporting per-child-stream
// speedup normalized to per-parent-CTA streams.
func fig8(p *Pool, _ string) (*Output, error) {
	t := &Table{
		Title:   "Figure 8: per-child-kernel SWQ speedup over per-parent-CTA SWQ",
		Columns: []string{"speedup"},
	}
	names := workloads.Names()
	var specs []Spec
	for _, name := range names {
		specs = append(specs,
			Spec{Benchmark: name, Scheme: SchemeBaseline},
			Spec{Benchmark: name, Scheme: SchemeBaseline, StreamMode: kernel.StreamPerParentCTA})
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		perChild, perCTA := outs[2*i], outs[2*i+1]
		t.Rows = append(t.Rows, Row{
			Label:  name,
			Values: []float64{float64(perCTA.Result.Cycles) / float64(perChild.Result.Cycles)},
		})
	}
	return &Output{Text: t.Render()}, nil
}

// fig12 renders the child-CTA execution-time PDF of the four
// benchmarks the paper's Figure 12 shows: 20 bins over [0.5, 1.5] of
// the mean (the paper plots -20%..+20%), and the fraction of child
// CTAs within 10% of the mean (the paper reports >= 95% for most).
func fig12(p *Pool, _ string) (*Output, error) {
	names := []string{"MM-small", "SA-thaliana", "BFS-graph500", "SSSP-graph500"}
	specs := make([]Spec, len(names))
	for i, name := range names {
		specs[i] = Spec{Benchmark: name, Scheme: SchemeBaseline}
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 12: child kernel CTA execution time distribution (Baseline-DP)")
	for i, name := range names {
		h := outs[i].Result.ChildCTAExec
		mean := h.Mean()
		fmt.Fprintf(&b, "%s: %d child CTAs, mean exec %.0f cycles, %.0f%% within +/-10%% of mean\n",
			name, h.N(), mean, h.FractionWithin(mean, 0.10)*100)
		fmt.Fprintf(&b, "  PDF over [-50%%,+50%%] of mean: %s\n", stats.Sparkline(h.PDF(0.5*mean, 1.5*mean, 20)))
	}
	return &Output{Text: b.String()}, nil
}

// fig19 renders the concurrent-CTA timelines of BFS-graph500 under
// Baseline-DP and SPAWN.
func fig19(p *Pool, _ string) (*Output, error) {
	outs, err := p.Run([]Spec{
		{Benchmark: "BFS-graph500", Scheme: SchemeBaseline, SampleInterval: seriesInterval},
		{Benchmark: "BFS-graph500", Scheme: SchemeSpawn, SampleInterval: seriesInterval},
	})
	if err != nil {
		return nil, err
	}
	return &Output{Text: "Figure 19: concurrent CTAs of BFS-graph500 over time\n" +
		renderSeries("BFS-graph500", SchemeBaseline, seriesInterval, outs[0].Result) +
		renderSeries("BFS-graph500", SchemeSpawn, seriesInterval, outs[1].Result)}, nil
}

// fig20 renders the CDF of child-kernel launches over time.
func fig20(p *Pool, _ string) (*Output, error) {
	const interval = 10_000
	labels := []string{"Baseline-DP", "Offline-Search", "SPAWN"}
	outs, err := p.Run([]Spec{
		{Benchmark: "BFS-graph500", Scheme: SchemeBaseline},
		{Benchmark: "BFS-graph500", Scheme: SchemeOffline},
		{Benchmark: "BFS-graph500", Scheme: SchemeSpawn},
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 20: cumulative child-kernel launches over time (BFS-graph500, one sample per %d cycles)\n", interval)
	for i, label := range labels {
		r := outs[i].Result
		cdf := stats.CDF(cyclesToU64(r.LaunchCycles), interval, uint64(r.Cycles))
		fmt.Fprintf(&b, "  %-14s (total %5.0f) %s\n", label, cdf[len(cdf)-1], stats.Sparkline(cdf))
	}
	return &Output{Text: b.String()}, nil
}

// cyclesToU64 converts typed cycle stamps to the raw-integer form the
// stats boundary expects.
func cyclesToU64(cs []kernel.Cycle) []uint64 {
	out := make([]uint64, len(cs))
	for i, c := range cs {
		out[i] = uint64(c)
	}
	return out
}

// fig21 compares SPAWN against DTBL on the paper's six workloads,
// normalized to flat.
func fig21(p *Pool, _ string) (*Output, error) {
	t := &Table{
		Title:   "Figure 21: SPAWN vs DTBL (speedup over flat)",
		Columns: []string{"SPAWN", "DTBL"},
	}
	names := []string{"SA-thaliana", "SA-elegans", "MM-small", "MM-large", "SSSP-citation", "SSSP-graph500"}
	schemes := []string{SchemeFlat, SchemeSpawn, SchemeDTBL}
	var specs []Spec
	for _, name := range names {
		for _, scheme := range schemes {
			specs = append(specs, Spec{Benchmark: name, Scheme: scheme})
		}
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		g := outs[i*len(schemes) : (i+1)*len(schemes)]
		fb := float64(g[0].Result.Cycles)
		t.Rows = append(t.Rows, Row{Label: name, Values: []float64{
			fb / float64(g[1].Result.Cycles),
			fb / float64(g[2].Result.Cycles),
		}})
	}
	return &Output{Text: t.Render()}, nil
}
