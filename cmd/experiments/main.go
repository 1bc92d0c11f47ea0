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
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"spawnsim/internal/faults"
	"spawnsim/internal/harness"
	"spawnsim/internal/sim"
	"spawnsim/internal/store"
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
		metricsDir = flag.String("metrics", "", "dump a per-run metrics snapshot (metrics-<bench>-<scheme>-<key>.json) into this directory")
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

	var memo harness.Memo
	if *all {
		// One failing experiment does not abort the batch: the rest
		// still regenerate, and the failures are summarized at the end.
		var failed []string
		for _, e := range exps {
			if err := run(pool, &memo, e, *bench, *csv); err != nil {
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
	if err := run(pool, &memo, e, *bench, *csv); err != nil {
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
// snapshot to <dir>/metrics-<bench>-<scheme>-<key>.json, where <key> is
// the first 12 hex digits of the spec's store key. Scheme names like
// "threshold:512" are sanitized for the filesystem. Specs that share a
// benchmark and scheme (Fig 7's CTA sizes, Fig 8's stream modes, the
// HWQ sweep) differ in key, so each gets its own file and the dump is
// the same at any -parallel. An uncacheable spec has no key and keeps
// metrics-<bench>-<scheme>.json; runs that share such a name overwrite
// in completion order.
func metricsDumper(dir string) func(*harness.Outcome) {
	return func(out *harness.Outcome) {
		if out.Metrics == nil {
			return
		}
		name := "metrics-" + out.Spec.Benchmark + "-" + strings.ReplaceAll(out.Spec.Scheme, ":", "-")
		if key := out.Key(); key != "" {
			name += "-" + key[:12]
		}
		path := filepath.Join(dir, name+".json")
		if err := out.Metrics.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: metrics:", err)
		}
	}
}

// run regenerates one experiment, prints its text and, when csvDir is
// set, writes its CSVs there. It returns the first run, write or close
// error, so a truncated CSV never exits 0.
func run(pool *harness.Pool, memo *harness.Memo, e harness.Experiment, bench, csvDir string) error {
	out, err := e.Run(pool, memo, bench)
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
