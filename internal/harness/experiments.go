package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"spawnsim/internal/config"
	"spawnsim/internal/workloads"
)

// Experiment is one entry of the evaluation index (DESIGN.md §3): a
// table or figure of the paper, or one of our extension studies.
type Experiment struct {
	// ID names the experiment on the experiments command line (-exp).
	ID string
	// Run regenerates the experiment on the pool. A non-empty bench
	// restricts fig5, hwq and ablation to that benchmark; the other
	// experiments ignore it. Figures 15-18 share the memo's comparison
	// batch.
	Run func(p *Pool, m *Memo, bench string) (*Output, error)
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

// Memo holds the one flat/baseline/offline/spawn comparison batch that
// Figures 15-18 share. Its owner keeps one per invocation; the zero
// value is empty. A Memo is not safe for concurrent use.
type Memo struct {
	mcs []*MainComparison
}

// comparisons runs CompareAll on first use and returns the memoized
// batch afterwards. A failed batch is not memoized.
func (m *Memo) comparisons(p *Pool) ([]*MainComparison, error) {
	if m.mcs == nil {
		mcs, err := p.CompareAll()
		if err != nil {
			return nil, err
		}
		m.mcs = mcs
	}
	return m.mcs, nil
}

// Experiments returns every experiment in -all order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", table1},
		{"table2", table2},
		{"fig5", fig5},
		{"fig6", fig6},
		{"fig7", tableFig((*Pool).Fig7)},
		{"fig8", tableFig((*Pool).Fig8)},
		{"fig12", fig12},
		mainFig("fig15", Fig15),
		mainFig("fig16", Fig16),
		mainFig("fig17", Fig17),
		mainFig("fig18", Fig18),
		{"fig19", fig19},
		{"fig20", fig20},
		{"fig21", tableFig((*Pool).Fig21)},
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

func table1(*Pool, *Memo, string) (*Output, error) {
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

func table2(*Pool, *Memo, string) (*Output, error) {
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

func fig5(p *Pool, _ *Memo, bench string) (*Output, error) {
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

func fig6(p *Pool, _ *Memo, _ string) (*Output, error) {
	ss, err := p.Fig6()
	if err != nil {
		return nil, err
	}
	if len(ss.Child) == 0 {
		return nil, errors.New("empty child-CTA series")
	}
	return &Output{Text: "Figure 6: CTA concurrency and resource utilization (BFS-graph500, Baseline-DP)\n" + ss.Render()}, nil
}

// tableFig adapts a pool method that renders one Table without CSV.
func tableFig(run func(*Pool) (*Table, error)) func(*Pool, *Memo, string) (*Output, error) {
	return func(p *Pool, _ *Memo, _ string) (*Output, error) {
		t, err := run(p)
		if err != nil {
			return nil, err
		}
		return &Output{Text: t.Render()}, nil
	}
}

func fig12(p *Pool, _ *Memo, _ string) (*Output, error) {
	rs, err := p.Fig12()
	if err != nil {
		return nil, err
	}
	if len(rs) != 4 {
		return nil, fmt.Errorf("want 4 benchmarks, got %d", len(rs))
	}
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 12: child kernel CTA execution time distribution (Baseline-DP)")
	for _, r := range rs {
		b.WriteString(r.Render())
	}
	return &Output{Text: b.String()}, nil
}

// mainFig is one of Figures 15-18: a table over the memo's comparison
// batch, written as <id>.csv.
func mainFig(id string, render func([]*MainComparison) *Table) Experiment {
	return Experiment{id, func(p *Pool, m *Memo, _ string) (*Output, error) {
		mcs, err := m.comparisons(p)
		if err != nil {
			return nil, err
		}
		t := render(mcs)
		return &Output{Text: t.Render(), CSVs: []CSV{{id, t.WriteCSV}}}, nil
	}}
}

func fig19(p *Pool, _ *Memo, _ string) (*Output, error) {
	base, sp, err := p.Fig19()
	if err != nil {
		return nil, err
	}
	return &Output{Text: "Figure 19: concurrent CTAs of BFS-graph500 over time\n" + base.Render() + sp.Render()}, nil
}

func fig20(p *Pool, _ *Memo, _ string) (*Output, error) {
	r, err := p.Fig20()
	if err != nil {
		return nil, err
	}
	if len(r.Spawn) == 0 {
		return nil, errors.New("empty SPAWN launch CDF")
	}
	return &Output{Text: r.Render()}, nil
}

func ablation(p *Pool, _ *Memo, bench string) (*Output, error) {
	names := []string{"BFS-graph500", "SA-thaliana"}
	if bench != "" {
		names = []string{bench}
	}
	var b strings.Builder
	for _, n := range names {
		t, err := p.Ablation(n)
		if err != nil {
			return nil, err
		}
		b.WriteString(t.Render())
	}
	return &Output{Text: b.String()}, nil
}

func hwq(p *Pool, _ *Memo, bench string) (*Output, error) {
	n := "BFS-graph500"
	if bench != "" {
		n = bench
	}
	t, err := p.HWQSensitivity(n)
	if err != nil {
		return nil, err
	}
	return &Output{Text: t.Render(), CSVs: []CSV{{"hwq-" + n, t.WriteCSV}}}, nil
}
