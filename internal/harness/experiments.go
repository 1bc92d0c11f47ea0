package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"spawnsim/internal/config"
	"spawnsim/internal/stats"
	"spawnsim/internal/workloads"
)

// Experiment is one entry of the evaluation index (DESIGN.md §3): a
// table or figure of the paper, or one of our extension studies.
type Experiment struct {
	// ID names the experiment on the experiments command line (-exp).
	ID string
	// Run regenerates the experiment on the pool. A non-empty bench
	// restricts fig5, hwq and ablation to that benchmark; the other
	// experiments ignore it.
	Run func(p *Pool, bench string) (*Output, error)
}

// Output is what one experiment produced: the text experiments prints
// and the CSVs it writes under -csv.
type Output struct {
	Text string
	CSVs []CSV
}

// CSV is one named CSV emitter; the file is <Name>.csv.
type CSV struct {
	Name  string
	Write func(io.Writer) error
}

// Experiments returns every experiment in -all order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", table1},
		{"table2", table2},
		{"fig5", fig5},
		{"fig6", fig6},
		{"fig7", fig7},
		{"fig8", fig8},
		{"fig12", fig12},
		mainFig("fig15", "Figure 15: speedup over the flat (non-DP) implementation", "GEOMEAN",
			func(flat, run *Outcome) float64 { return float64(flat.Result.Cycles) / float64(run.Result.Cycles) }),
		mainFig("fig16", "Figure 16: SMX occupancy", "AVERAGE",
			func(_, run *Outcome) float64 { return run.Result.Occupancy }),
		mainFig("fig17", "Figure 17: L2 cache hit rate", "AVERAGE",
			func(_, run *Outcome) float64 { return run.Result.L2HitRate }),
		mainFig("fig18", "Figure 18: number of child kernels launched", "",
			func(_, run *Outcome) float64 { return float64(run.Result.ChildKernels) }),
		{"fig19", fig19},
		{"fig20", fig20},
		{"fig21", fig21},
		{"ablation", ablation},
		{"hwq", hwq},
	}
}

// FindExperiment returns the experiment with the given id.
func FindExperiment(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", id)
}

func table1(*Pool, string) (*Output, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "Table I: benchmarks (<application, input> pairs)")
	for _, name := range workloads.Names() {
		app, err := Spec{Benchmark: name}.buildApp()
		if err != nil {
			return nil, err
		}
		if app.TotalWork() <= 0 {
			return nil, fmt.Errorf("benchmark %s has no work", name)
		}
		fmt.Fprintf(&b, "  %-15s %7d elements, %9d work items, default THRESHOLD %d\n",
			name, app.Elements, app.TotalWork(), app.DefaultThreshold)
	}
	return &Output{Text: b.String()}, nil
}

func table2(*Pool, string) (*Output, error) {
	cfg := config.K20m()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := cfg.TableII()
	if t == "" {
		return nil, errors.New("empty configuration table")
	}
	return &Output{Text: t + "\n"}, nil
}

func fig5(p *Pool, bench string) (*Output, error) {
	names := workloads.Names()
	if bench != "" {
		names = []string{bench}
	}
	rs, err := p.Fig5(names...)
	if err != nil {
		return nil, err
	}
	out := &Output{}
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Render())
		out.CSVs = append(out.CSVs, CSV{"fig5-" + r.Benchmark, r.WriteCSV})
	}
	out.Text = b.String()
	return out, nil
}

// mainFig is one of Figures 15-18: for every registry benchmark, the
// value of its Baseline-DP, Offline-Search and SPAWN runs given its
// flat run, with a GEOMEAN or AVERAGE row when summary names one,
// written as <id>.csv. The four figures run the same batch: the pool's
// result store replays it for every figure after the first.
func mainFig(id, title, summary string, value func(flat, run *Outcome) float64) Experiment {
	return Experiment{id, func(p *Pool, _ string) (*Output, error) {
		names := workloads.Names()
		schemes := []string{SchemeFlat, SchemeBaseline, SchemeOffline, SchemeSpawn}
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
		t := &Table{Title: title, Columns: []string{"Baseline-DP", "Offline-Search", "SPAWN"}}
		cols := make([][]float64, len(t.Columns))
		for i, name := range names {
			g := outs[i*len(schemes) : (i+1)*len(schemes)]
			row := Row{Label: name}
			for j, out := range g[1:] {
				row.Values = append(row.Values, value(g[0], out))
				cols[j] = append(cols[j], row.Values[j])
			}
			t.Rows = append(t.Rows, row)
		}
		if summary != "" {
			row := Row{Label: summary}
			for _, col := range cols {
				if summary == "GEOMEAN" {
					row.Values = append(row.Values, stats.GeoMean(col))
					continue
				}
				var m stats.Mean
				for _, v := range col {
					m.Add(v)
				}
				row.Values = append(row.Values, m.Value())
			}
			t.Rows = append(t.Rows, row)
		}
		return &Output{Text: t.Render(), CSVs: []CSV{{id, t.WriteCSV}}}, nil
	}}
}
