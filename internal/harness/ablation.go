package harness

import (
	"fmt"
	"strings"

	"spawnsim/internal/config"
	spawn "spawnsim/internal/core"
	"spawnsim/internal/sim/kernel"
)

// ablation measures the sensitivity of SPAWN to the design choices
// DESIGN.md §4 calls out: the metric-averaging window (Section IV-B's
// 1024 cycles), the cold-start admission cap (our scale compensation;
// "unbounded" is the paper's literal Algorithm 1), and the per-warp
// pending-launch pool depth. One table per benchmark (BFS-graph500 and
// SA-thaliana unless bench names one) and one row per variant; values
// are speedup over flat and child kernels launched.
func ablation(p *Pool, bench string) (*Output, error) {
	names := []string{"BFS-graph500", "SA-thaliana"}
	if bench != "" {
		names = []string{bench}
	}
	var b strings.Builder
	for _, benchmark := range names {
		t := &Table{
			Title:   fmt.Sprintf("SPAWN ablation on %s (speedup over flat, child kernels)", benchmark),
			Columns: []string{"speedup", "kernels"},
			Notes: []string{
				"window-*: Section IV-B metric window (default 1024 cycles)",
				"coldcap-off: the paper's unbounded cold start (Algorithm 1 lines 2-3 verbatim)",
				"pool-*: per-warp pending-launch bound (default 8)",
			},
		}

		base := config.K20m()
		// One spec per variant; MakePolicy builds a fresh controller per
		// attempt so pooled (and retried) variants never share state. The
		// PolicyTag names the closure so variants stay content-addressable
		// (resumable) despite carrying a MakePolicy.
		labels := []string{}
		specs := []Spec{{Benchmark: benchmark, Scheme: SchemeFlat}}
		addVariant := func(label string, cfg config.GPU, mutate func(*spawn.Controller)) {
			labels = append(labels, label)
			specs = append(specs, Spec{
				Benchmark: benchmark,
				Config:    &cfg,
				PolicyTag: "spawn-ablation:" + label,
				MakePolicy: func(cfg config.GPU) kernel.Policy {
					ctrl := spawn.New(cfg)
					if mutate != nil {
						mutate(ctrl)
					}
					return ctrl
				},
			})
		}
		addVariant("default", base, nil)
		for _, w := range []kernel.Cycle{256, 8192} {
			cfg := base
			cfg.SpawnWindow = w
			addVariant(fmt.Sprintf("window-%d", w), cfg, nil)
		}
		addVariant("coldcap-off", base, func(c *spawn.Controller) { c.SetColdCap(1 << 40) })
		for _, pl := range []int{2, 32} {
			cfg := base
			cfg.MaxPendingLaunches = pl
			addVariant(fmt.Sprintf("pool-%d", pl), cfg, nil)
		}

		outs, err := p.Run(specs)
		if err != nil {
			return nil, err
		}
		fb := float64(outs[0].Result.Cycles)
		for i, label := range labels {
			out := outs[i+1]
			t.Rows = append(t.Rows, Row{Label: label, Values: []float64{
				fb / float64(out.Result.Cycles),
				float64(out.Result.ChildKernels),
			}})
		}
		b.WriteString(t.Render())
	}
	return &Output{Text: b.String()}, nil
}

// hwq is an extension experiment the paper's analysis implies: Section
// III blames the 32-HWQ concurrent-kernel limit for the low child-CTA
// concurrency of Baseline-DP, so widening the queue count should recover
// Baseline-DP performance (and shrink SPAWN's edge) while narrowing it
// should amplify it. It runs on BFS-graph500 unless bench names another
// benchmark. One row per HWQ count; values are Baseline-DP and SPAWN
// speedup over flat.
func hwq(p *Pool, bench string) (*Output, error) {
	benchmark := "BFS-graph500"
	if bench != "" {
		benchmark = bench
	}
	t := &Table{
		Title:   fmt.Sprintf("Extension: HWQ-count sensitivity on %s (speedup over flat)", benchmark),
		Columns: []string{"Baseline-DP", "SPAWN"},
		Notes:   []string{"Kepler has 32 HWQs (Table II); the paper blames this concurrent-kernel limit for Baseline-DP's child-phase underutilization"},
	}
	queues := []int{8, 16, 32, 64, 128}
	schemes := []string{SchemeBaseline, SchemeSpawn}
	specs := []Spec{{Benchmark: benchmark, Scheme: SchemeFlat}}
	for _, q := range queues {
		cfg := config.K20m()
		cfg.NumHWQs = q
		for _, scheme := range schemes {
			specs = append(specs, Spec{Benchmark: benchmark, Scheme: scheme, Config: &cfg})
		}
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	fb := float64(outs[0].Result.Cycles)
	for i, q := range queues {
		row := Row{Label: fmt.Sprintf("HWQs-%d", q)}
		for j := range schemes {
			out := outs[1+i*len(schemes)+j]
			row.Values = append(row.Values, fb/float64(out.Result.Cycles))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Text: t.Render(), CSVs: []CSV{{"hwq-" + benchmark, t.WriteCSV}}}, nil
}
