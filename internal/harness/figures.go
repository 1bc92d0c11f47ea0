package harness

import (
	"fmt"
	"sort"

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

// fig5Assemble folds one benchmark's batch (flat first) into the sorted
// sweep result.
func fig5Assemble(benchmark string, outs []*Outcome) *Fig5Result {
	res := &Fig5Result{Benchmark: benchmark}
	flat := outs[0]
	for _, out := range outs[1:] {
		res.Points = append(res.Points, Fig5Point{
			Threshold: float64(out.Threshold),
			Offload:   out.Result.OffloadedFraction,
			Speedup:   float64(flat.Result.Cycles) / float64(out.Result.Cycles),
		})
	}
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].Offload < res.Points[j].Offload })
	return res
}

// Fig5 sweeps the parent/child workload distribution for one benchmark
// (the paper's Figure 5): speedup over flat as a function of the
// fraction of workload offloaded via child kernels.
func (p *Pool) Fig5(benchmark string) (*Fig5Result, error) {
	specs, err := fig5Specs(benchmark)
	if err != nil {
		return nil, err
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	return fig5Assemble(benchmark, outs), nil
}

// Fig5All runs the Figure 5 sweep for every benchmark, as one flat
// batch so the workers stay busy across benchmark boundaries.
func (p *Pool) Fig5All() ([]*Fig5Result, error) {
	names := workloads.Names()
	var specs []Spec
	ranges := make([][2]int, len(names)) // [start, end) of each benchmark's batch
	for i, name := range names {
		bs, err := fig5Specs(name)
		if err != nil {
			return nil, err
		}
		ranges[i] = [2]int{len(specs), len(specs) + len(bs)}
		specs = append(specs, bs...)
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	results := make([]*Fig5Result, len(names))
	for i, name := range names {
		results[i] = fig5Assemble(name, outs[ranges[i][0]:ranges[i][1]])
	}
	return results, nil
}

// SeriesSet carries the time-series outputs of Figures 6 and 19.
type SeriesSet struct {
	Benchmark string
	Scheme    string
	Interval  uint64
	Parent    []float64
	Child     []float64
	Util      []float64
	Cycles    uint64
}

// seriesFrom shapes a sampled outcome into its SeriesSet.
func seriesFrom(benchmark, scheme string, interval uint64, out *Outcome) *SeriesSet {
	return &SeriesSet{
		Benchmark: benchmark,
		Scheme:    scheme,
		Interval:  interval,
		Parent:    out.Result.ParentCTASeries.Values,
		Child:     out.Result.ChildCTASeries.Values,
		Util:      out.Result.UtilSeries.Values,
		Cycles:    uint64(out.Result.Cycles),
	}
}

// Fig6 renders the Baseline-DP CTA-concurrency/utilization timeline of
// BFS-graph500 (the paper's Figure 6).
func (p *Pool) Fig6() (*SeriesSet, error) {
	out, err := p.RunSpec(Spec{Benchmark: "BFS-graph500", Scheme: SchemeBaseline, SampleInterval: 1000})
	if err != nil {
		return nil, err
	}
	return seriesFrom("BFS-graph500", SchemeBaseline, 1000, out), nil
}

// Fig7 measures speedup sensitivity to the child CTA size: 64, 128 and
// 256 threads/CTA, normalized to 32 (the paper's Figure 7), under
// Baseline-DP.
func (p *Pool) Fig7() (*Table, error) {
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
	return t, nil
}

// Fig8 compares one SWQ per child kernel against one SWQ per parent CTA
// (the paper's Figure 8), under Baseline-DP, reporting per-child-stream
// speedup normalized to per-parent-CTA streams.
func (p *Pool) Fig8() (*Table, error) {
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
	return t, nil
}

// Fig12Result is the child-CTA execution-time PDF of one benchmark.
type Fig12Result struct {
	Benchmark string
	Mean      float64
	// PDF over [0.5*mean, 1.5*mean] in 20 bins (the paper plots
	// -20%..+20% around the average).
	PDF []float64
	// Within10 is the fraction of child CTAs within 10% of the mean
	// (the paper reports >= 95% for most benchmarks).
	Within10 float64
	N        int
}

// Fig12 reproduces the paper's Figure 12 for the four benchmarks shown.
func (p *Pool) Fig12() ([]*Fig12Result, error) {
	names := []string{"MM-small", "SA-thaliana", "BFS-graph500", "SSSP-graph500"}
	specs := make([]Spec, len(names))
	for i, name := range names {
		specs[i] = Spec{Benchmark: name, Scheme: SchemeBaseline}
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	var res []*Fig12Result
	for i, name := range names {
		h := outs[i].Result.ChildCTAExec
		mean := h.Mean()
		res = append(res, &Fig12Result{
			Benchmark: name,
			Mean:      mean,
			PDF:       h.PDF(0.5*mean, 1.5*mean, 20),
			Within10:  h.FractionWithin(mean, 0.10),
			N:         h.N(),
		})
	}
	return res, nil
}

// MainComparison runs flat/baseline/offline/spawn for one benchmark and
// feeds Figures 15-18.
type MainComparison struct {
	Benchmark string
	Flat      *Outcome
	Baseline  *Outcome
	Offline   *Outcome
	Spawn     *Outcome
}

// mainSchemes is the per-benchmark batch shape of CompareMain/CompareAll.
var mainSchemes = []string{SchemeFlat, SchemeBaseline, SchemeOffline, SchemeSpawn}

// compareBatch runs the four main schemes for each named benchmark as
// one flat batch and reassembles per-benchmark comparisons.
func (p *Pool) compareBatch(names []string) ([]*MainComparison, error) {
	var specs []Spec
	for _, name := range names {
		for _, scheme := range mainSchemes {
			specs = append(specs, Spec{Benchmark: name, Scheme: scheme})
		}
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	mcs := make([]*MainComparison, len(names))
	for i, name := range names {
		g := outs[i*len(mainSchemes) : (i+1)*len(mainSchemes)]
		mcs[i] = &MainComparison{Benchmark: name, Flat: g[0], Baseline: g[1], Offline: g[2], Spawn: g[3]}
	}
	return mcs, nil
}

// CompareMain runs the three evaluated schemes plus flat.
func (p *Pool) CompareMain(benchmark string) (*MainComparison, error) {
	mcs, err := p.compareBatch([]string{benchmark})
	if err != nil {
		return nil, err
	}
	return mcs[0], nil
}

// CompareAll runs CompareMain for every registry benchmark.
func (p *Pool) CompareAll() ([]*MainComparison, error) {
	return p.compareBatch(workloads.Names())
}

// Fig15 renders speedups over flat (Baseline-DP, Offline-Search, SPAWN)
// and appends the geometric means.
func Fig15(mcs []*MainComparison) *Table {
	t := &Table{
		Title:   "Figure 15: speedup over the flat (non-DP) implementation",
		Columns: []string{"Baseline-DP", "Offline-Search", "SPAWN"},
	}
	var b, o, s []float64
	for _, mc := range mcs {
		fb := float64(mc.Flat.Result.Cycles)
		row := Row{Label: mc.Benchmark, Values: []float64{
			fb / float64(mc.Baseline.Result.Cycles),
			fb / float64(mc.Offline.Result.Cycles),
			fb / float64(mc.Spawn.Result.Cycles),
		}}
		b = append(b, row.Values[0])
		o = append(o, row.Values[1])
		s = append(s, row.Values[2])
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, Row{Label: "GEOMEAN", Values: []float64{
		stats.GeoMean(b), stats.GeoMean(o), stats.GeoMean(s),
	}})
	return t
}

// Fig16 renders SMX occupancy per scheme.
func Fig16(mcs []*MainComparison) *Table {
	t := &Table{
		Title:   "Figure 16: SMX occupancy",
		Columns: []string{"Baseline-DP", "Offline-Search", "SPAWN"},
	}
	var b, o, s stats.Mean
	for _, mc := range mcs {
		row := Row{Label: mc.Benchmark, Values: []float64{
			mc.Baseline.Result.Occupancy,
			mc.Offline.Result.Occupancy,
			mc.Spawn.Result.Occupancy,
		}}
		b.Add(row.Values[0])
		o.Add(row.Values[1])
		s.Add(row.Values[2])
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, Row{Label: "AVERAGE", Values: []float64{b.Value(), o.Value(), s.Value()}})
	return t
}

// Fig17 renders L2 hit rates per scheme.
func Fig17(mcs []*MainComparison) *Table {
	t := &Table{
		Title:   "Figure 17: L2 cache hit rate",
		Columns: []string{"Baseline-DP", "Offline-Search", "SPAWN"},
	}
	var b, o, s stats.Mean
	for _, mc := range mcs {
		row := Row{Label: mc.Benchmark, Values: []float64{
			mc.Baseline.Result.L2HitRate,
			mc.Offline.Result.L2HitRate,
			mc.Spawn.Result.L2HitRate,
		}}
		b.Add(row.Values[0])
		o.Add(row.Values[1])
		s.Add(row.Values[2])
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, Row{Label: "AVERAGE", Values: []float64{b.Value(), o.Value(), s.Value()}})
	return t
}

// Fig18 renders the number of child kernels launched per scheme.
func Fig18(mcs []*MainComparison) *Table {
	t := &Table{
		Title:   "Figure 18: number of child kernels launched",
		Columns: []string{"Baseline-DP", "Offline-Search", "SPAWN"},
	}
	for _, mc := range mcs {
		t.Rows = append(t.Rows, Row{Label: mc.Benchmark, Values: []float64{
			float64(mc.Baseline.Result.ChildKernels),
			float64(mc.Offline.Result.ChildKernels),
			float64(mc.Spawn.Result.ChildKernels),
		}})
	}
	return t
}

// Fig19 renders the concurrent-CTA timelines of BFS-graph500 under
// Baseline-DP and SPAWN.
func (p *Pool) Fig19() (baseline, spawnSeries *SeriesSet, err error) {
	outs, err := p.Run([]Spec{
		{Benchmark: "BFS-graph500", Scheme: SchemeBaseline, SampleInterval: 1000},
		{Benchmark: "BFS-graph500", Scheme: SchemeSpawn, SampleInterval: 1000},
	})
	if err != nil {
		return nil, nil, err
	}
	return seriesFrom("BFS-graph500", SchemeBaseline, 1000, outs[0]),
		seriesFrom("BFS-graph500", SchemeSpawn, 1000, outs[1]), nil
}

// Fig20Result carries the cumulative-launch CDFs of BFS-graph500.
type Fig20Result struct {
	Interval uint64
	Baseline []float64
	Offline  []float64
	Spawn    []float64
}

// Fig20 renders the CDF of child-kernel launches over time.
func (p *Pool) Fig20() (*Fig20Result, error) {
	const interval = 10_000
	outs, err := p.Run([]Spec{
		{Benchmark: "BFS-graph500", Scheme: SchemeBaseline},
		{Benchmark: "BFS-graph500", Scheme: SchemeOffline},
		{Benchmark: "BFS-graph500", Scheme: SchemeSpawn},
	})
	if err != nil {
		return nil, err
	}
	b, o, s := outs[0], outs[1], outs[2]
	return &Fig20Result{
		Interval: interval,
		Baseline: stats.CDF(cyclesToU64(b.Result.LaunchCycles), interval, uint64(b.Result.Cycles)),
		Offline:  stats.CDF(cyclesToU64(o.Result.LaunchCycles), interval, uint64(o.Result.Cycles)),
		Spawn:    stats.CDF(cyclesToU64(s.Result.LaunchCycles), interval, uint64(s.Result.Cycles)),
	}, nil
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

// Fig21 compares SPAWN against DTBL on the paper's six workloads,
// normalized to flat.
func (p *Pool) Fig21() (*Table, error) {
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
	return t, nil
}
