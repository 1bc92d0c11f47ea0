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
		{"fig7", fig7},
		{"fig8", fig8},
		{"fig12", fig12},
		mainFig("fig15", Fig15),
		mainFig("fig16", Fig16),
		mainFig("fig17", Fig17),
		mainFig("fig18", Fig18),
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
