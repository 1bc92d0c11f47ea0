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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"spawnsim/internal/config"
	"spawnsim/internal/faults"
	"spawnsim/internal/harness"
	"spawnsim/internal/sim"
	"spawnsim/internal/store"
	"spawnsim/internal/workloads"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id: table1|table2|fig5|fig6|fig7|fig8|fig12|fig15|fig16|fig17|fig18|fig19|fig20|fig21|ablation|hwq")
		bench      = flag.String("bench", "", "restrict fig5 to one benchmark")
		all        = flag.Bool("all", false, "run every experiment")
		csv        = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		metricsDir = flag.String("metrics", "", "dump a per-run metrics snapshot (metrics-<bench>-<scheme>.json) into this directory")
		parallel   = flag.Int("parallel", 0, "simulations run concurrently per sweep (0 = GOMAXPROCS, 1 = serial); outputs are byte-identical at any width")
		engine     = flag.String("engine", "wheel", "simulator core for every run: 'wheel' (event-wheel, skips quiet cycles) or 'stepped' (cycle-stepped reference); both produce byte-identical results")

		timeout   = flag.Duration("timeout", 0, "wall-clock deadline per simulation run (0 = none)")
		check     = flag.Bool("check", false, "audit simulator conservation-law invariants during every run")
		chaosPlan = flag.String("chaos-plan", "", "fault-injection plan applied to every run: 'mild', 'none', or clauses like transit=0.1:2000,hwq=0.02")
		chaosSeed = flag.Uint64("chaos-seed", 0, "seed selecting the concrete fault schedule for -chaos-plan")
		retries   = flag.Int("retries", 0, "retry transient chaos-run failures up to N times under derived seeds")

		resume       = flag.String("resume", "", "checkpoint directory: completed runs are stored in <dir>/store and journaled to <dir>/journal.jsonl; re-invoking with the same flags replays finished sweep points and re-runs only the missing ones")
		tolerate     = flag.Bool("tolerate", false, "degrade gracefully when a run's retry budget is exhausted: keep its partial result with the failure quarantined instead of failing the sweep")
		stallWindow  = flag.Uint64("stall-window", 0, "abort a run that makes no simulated progress for N scheduler steps (livelock watchdog; 0 = off)")
		stallTimeout = flag.Duration("stall-timeout", 0, "abort a run that delivers no heartbeat for this long in wall time (0 = off)")
		retryBackoff = flag.Duration("retry-backoff", 0, "base wall-clock delay before each retry, doubling per attempt capped at 16x (0 = none)")
	)
	flag.Parse()

	var plan *faults.Plan
	if *chaosPlan != "" {
		p, err := faults.Parse(*chaosPlan, *chaosSeed)
		if err != nil {
			fatal(err)
		}
		plan = &p
	}
	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The figure drivers build their Specs internally, so the robustness
	// settings reach every run through the pool's defaults hook, which
	// the pool applies exactly once per run (sweep candidates included).
	pool := &harness.Pool{
		Workers: *parallel,
		Context: ctx,
		Defaults: func(s *harness.Spec) {
			s.Engine = eng
			s.Deadline = *timeout
			s.CheckInvariants = *check
			s.Retries = *retries
			s.Tolerate = *tolerate
			s.StallWindow = *stallWindow
			s.StallTimeout = *stallTimeout
			s.RetryBackoff = *retryBackoff
			if plan != nil && s.FaultPlan == nil {
				s.FaultPlan = plan
			}
		},
	}
	if *resume != "" {
		st, err := store.Open(filepath.Join(*resume, "store"))
		if err != nil {
			fatal(err)
		}
		j, err := store.OpenJournal(filepath.Join(*resume, "journal.jsonl"))
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		pool.Store, pool.Journal = st, j
		if n := len(j.Prior()); n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: resuming over %d journaled points in %s\n", n, *resume)
		}
	}
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fatal(err)
		}
		// The pool serializes observer callbacks, so the dumper needs no
		// locking even at -parallel > 1.
		pool.Observer = metricsDumper(*metricsDir)
	}

	ids := []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig12",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "ablation", "hwq"}
	if *all {
		// One failing experiment no longer aborts the batch: the rest
		// still regenerate, and the failures are summarized at the end.
		var failed []string
		for _, id := range ids {
			if err := run(pool, id, *bench, *csv); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
				failed = append(failed, id)
			}
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %d of %d experiments failed: %s\n",
				len(failed), len(ids), strings.Join(failed, ", "))
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintf(os.Stderr, "experiments: pass -exp one of %s, or -all\n", strings.Join(ids, "|"))
		os.Exit(2)
	}
	if err := run(pool, *exp, *bench, *csv); err != nil {
		fatal(err)
	}
}

// fatal reports the error and exits with a code distinguishing the
// abort kind (130 canceled, 124 deadline/stalled, 3 invariant, 1
// otherwise), so sweep scripts can tell an interrupt from a timeout
// from a real failure.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	if kind, ok := harness.AbortKind(err); ok {
		fmt.Fprintf(os.Stderr, "experiments: abort kind: %s\n", kind)
	}
	os.Exit(harness.ExitCode(err))
}

// metricsDumper returns an observer that writes every run's metrics
// snapshot to <dir>/metrics-<bench>-<scheme>.json. Scheme names like
// "threshold:512" are sanitized for the filesystem; repeated runs of
// the same (bench, scheme) pair overwrite, keeping the latest. Files
// are keyed by run identity, never call order, so parallel sweeps
// produce byte-identical dumps.
func metricsDumper(dir string) func(*harness.Outcome) {
	return func(out *harness.Outcome) {
		if out.Metrics == nil {
			return
		}
		scheme := strings.ReplaceAll(out.Spec.Scheme, ":", "-")
		path := filepath.Join(dir, fmt.Sprintf("metrics-%s-%s.json", out.Spec.Benchmark, scheme))
		if err := out.Metrics.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: metrics:", err)
		}
	}
}

// mainComparisons caches the flat/baseline/offline/spawn runs shared by
// Figures 15-18.
var mainComparisons []*harness.MainComparison

func comparisons(pool *harness.Pool) ([]*harness.MainComparison, error) {
	if mainComparisons == nil {
		var err error
		mainComparisons, err = pool.CompareAll()
		if err != nil {
			return nil, err
		}
	}
	return mainComparisons, nil
}

// csvOut opens <dir>/<name>.csv when dir is set; callers must Close.
func csvOut(dir, name string) (io.WriteCloser, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(dir, name+".csv"))
}

// writeTableCSV writes a table CSV when dir is set.
func writeTableCSV(dir, name string, t *harness.Table) error {
	f, err := csvOut(dir, name)
	if err != nil || f == nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

func run(pool *harness.Pool, id, bench, csvDir string) error {
	switch id {
	case "table1":
		fmt.Println("Table I: benchmarks (<application, input> pairs)")
		for _, name := range workloads.Names() {
			b, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			app := b.Make()
			if err := app.Normalize(); err != nil {
				return err
			}
			fmt.Printf("  %-15s %7d elements, %9d work items, default THRESHOLD %d\n",
				name, app.Elements, app.TotalWork(), app.DefaultThreshold)
		}
	case "table2":
		fmt.Println(config.K20m().TableII())
	case "fig5":
		names := workloads.Names()
		if bench != "" {
			names = []string{bench}
		}
		for _, n := range names {
			r, err := pool.Fig5(n)
			if err != nil {
				return err
			}
			fmt.Print(r.Render())
			if f, err := csvOut(csvDir, "fig5-"+n); err != nil {
				return err
			} else if f != nil {
				err := r.WriteCSV(f)
				f.Close()
				if err != nil {
					return err
				}
			}
		}
	case "fig6":
		ss, err := pool.Fig6()
		if err != nil {
			return err
		}
		fmt.Println("Figure 6: CTA concurrency and resource utilization (BFS-graph500, Baseline-DP)")
		fmt.Print(ss.Render())
	case "fig7":
		t, err := pool.Fig7()
		if err != nil {
			return err
		}
		fmt.Print(t.Render())
	case "fig8":
		t, err := pool.Fig8()
		if err != nil {
			return err
		}
		fmt.Print(t.Render())
	case "fig12":
		rs, err := pool.Fig12()
		if err != nil {
			return err
		}
		fmt.Println("Figure 12: child kernel CTA execution time distribution (Baseline-DP)")
		for _, r := range rs {
			fmt.Print(r.Render())
		}
	case "fig15", "fig16", "fig17", "fig18":
		mcs, err := comparisons(pool)
		if err != nil {
			return err
		}
		var t *harness.Table
		switch id {
		case "fig15":
			t = harness.Fig15(mcs)
		case "fig16":
			t = harness.Fig16(mcs)
		case "fig17":
			t = harness.Fig17(mcs)
		case "fig18":
			t = harness.Fig18(mcs)
		}
		fmt.Print(t.Render())
		if err := writeTableCSV(csvDir, id, t); err != nil {
			return err
		}
	case "fig19":
		base, sp, err := pool.Fig19()
		if err != nil {
			return err
		}
		fmt.Println("Figure 19: concurrent CTAs of BFS-graph500 over time")
		fmt.Print(base.Render())
		fmt.Print(sp.Render())
	case "fig20":
		r, err := pool.Fig20()
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	case "fig21":
		t, err := pool.Fig21()
		if err != nil {
			return err
		}
		fmt.Print(t.Render())
	case "hwq":
		n := "BFS-graph500"
		if bench != "" {
			n = bench
		}
		t, err := pool.HWQSensitivity(n)
		if err != nil {
			return err
		}
		fmt.Print(t.Render())
		if err := writeTableCSV(csvDir, "hwq-"+n, t); err != nil {
			return err
		}
	case "ablation":
		names := []string{"BFS-graph500", "SA-thaliana"}
		if bench != "" {
			names = []string{bench}
		}
		for _, n := range names {
			t, err := pool.Ablation(n)
			if err != nil {
				return err
			}
			fmt.Print(t.Render())
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
