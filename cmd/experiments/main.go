// Command experiments regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	experiments -exp table2
//	experiments -exp fig15
//	experiments -exp fig5 -bench BFS-graph500
//	experiments -exp fig5 -parallel 8
//	experiments -all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spawnsim/cmd/internal/runflags"
	"spawnsim/internal/harness"
	"spawnsim/internal/workloads"
)

func main() {
	exps := harness.Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	var (
		exp        = flag.String("exp", "", "experiment id: "+strings.Join(ids, "|"))
		bench      = flag.String("bench", "", "restrict fig5, hwq and ablation to one benchmark")
		all        = flag.Bool("all", false, "run every experiment")
		csv        = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		metricsDir = flag.String("metrics", "", "dump a per-run metrics snapshot (metrics-<bench>-<label>-<key>.json) into this directory")
	)
	runFlags := runflags.Register(flag.CommandLine)
	runFlags.RegisterGuards(flag.CommandLine)
	flag.Parse()
	if *bench != "" {
		if _, err := workloads.ByName(*bench); err != nil {
			fatal(err)
		}
	}

	// The figure drivers build their Specs internally; the pool's
	// defaults hook carries the run settings to every one of them.
	pool, done, err := runFlags.Pool("experiments")
	if err != nil {
		fatal(err)
	}
	defer done()
	var dump *metricsDumper
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fatal(err)
		}
		// The pool serializes observer callbacks, so the dumper needs no
		// locking even at -parallel > 1.
		dump = &metricsDumper{dir: *metricsDir}
		pool.Observer = dump.observe
	}

	if *all {
		// One failing experiment does not abort the batch: the rest
		// still regenerate, and the failures are summarized at the end.
		var failed []string
		for _, e := range exps {
			if err := run(pool, dump, e, *bench, *csv); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
				failed = append(failed, e.ID)
			}
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %d of %d experiments failed: %s\n",
				len(failed), len(exps), strings.Join(failed, ", "))
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintf(os.Stderr, "experiments: pass -exp one of %s, or -all\n", strings.Join(ids, "|"))
		os.Exit(2)
	}
	e, err := harness.FindExperiment(*exp)
	if err != nil {
		fatal(err)
	}
	if err := run(pool, dump, e, *bench, *csv); err != nil {
		fatal(err)
	}
}

func fatal(err error) { runflags.Fatal("experiments", err) }

// metricsDumper is an observer that writes every run's metrics
// snapshot to <dir>/metrics-<bench>-<label>-<key>.json. <label> is the
// spec's scheme; when a MakePolicy replaces the scheme (the ablation
// variants), it is the spec's PolicyTag, or "custom-policy" for an
// untagged one. ':' becomes '-' for the filesystem. <key> is the first
// 12 hex digits of the spec's store key. Specs that share a benchmark
// and label (Fig 7's CTA sizes, Fig 8's stream modes, the HWQ sweep)
// differ in key, so each gets its own file and the dump is the same at
// any -parallel. An uncacheable spec (a MakePolicy with no PolicyTag)
// has no key and keeps metrics-<bench>-<label>.json; runs that share
// such a name overwrite in completion order. The first write error is
// kept for the experiment that caused it (see takeErr).
type metricsDumper struct {
	dir string
	err error
}

func (d *metricsDumper) observe(out *harness.Outcome) {
	if out.Metrics == nil {
		return
	}
	label := out.Spec.Scheme
	if label == "" {
		label = out.Spec.PolicyTag
	}
	if label == "" {
		label = "custom-policy"
	}
	name := "metrics-" + out.Spec.Benchmark + "-" + strings.ReplaceAll(label, ":", "-")
	if key := out.Key(); key != "" {
		name += "-" + key[:12]
	}
	if err := out.Metrics.WriteFile(filepath.Join(d.dir, name+".json")); err != nil && d.err == nil {
		d.err = fmt.Errorf("metrics: %w", err)
	}
}

// takeErr returns the first write error since the last call and clears
// it. A nil dumper has none.
func (d *metricsDumper) takeErr() error {
	if d == nil {
		return nil
	}
	err := d.err
	d.err = nil
	return err
}

// run regenerates one experiment, prints its text and, when csvDir is
// set, writes its CSVs there. It returns the first run, metrics dump,
// write or close error, so a missing snapshot or a truncated CSV never
// exits 0.
func run(pool *harness.Pool, dump *metricsDumper, e harness.Experiment, bench, csvDir string) error {
	out, err := e.Run(pool, bench)
	if derr := dump.takeErr(); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	fmt.Print(out.Text)
	if csvDir == "" {
		return nil
	}
	for _, c := range out.CSVs {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, c.Name+".csv"))
		if err != nil {
			return err
		}
		err = c.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
