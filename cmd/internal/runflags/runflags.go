// Package runflags is the one declaration of the run settings that
// spawnsim, spawnreport and experiments share: the simulator engine,
// the worker count, the chaos plan and its retries, and the guards that
// bound a run (deadline, invariant audit, checkpoint directory,
// tolerance, stall watchdog). Pool turns the parsed flags into the
// harness.Pool every command runs through, so each setting reaches every
// run — sweep candidates included — through one Defaults hook.
package runflags

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"spawnsim/internal/faults"
	"spawnsim/internal/harness"
	"spawnsim/internal/sim"
	"spawnsim/internal/store"
)

// Flags holds the parsed shared run settings.
type Flags struct {
	engine    string
	parallel  int
	chaosPlan string
	chaosSeed uint64
	retries   int

	timeout     time.Duration
	check       bool
	resume      string
	tolerate    bool
	stallWindow uint64
}

// Register declares the settings every command takes on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.engine, "engine", "wheel", "simulator core: 'wheel' (event-wheel, skips quiet cycles) or 'stepped' (cycle-stepped reference); both produce byte-identical results")
	fs.IntVar(&f.parallel, "parallel", 0, "concurrent simulations per sweep (0 = GOMAXPROCS, 1 = serial); outputs are byte-identical at any width")
	fs.StringVar(&f.chaosPlan, "chaos-plan", "", "fault-injection plan applied to every run: 'mild', 'none', or clauses like transit=0.1:2000,hwq=0.02,smx=0.01,dram=0.05:200,epoch=8192")
	fs.Uint64Var(&f.chaosSeed, "chaos-seed", 0, "seed selecting the concrete fault schedule for -chaos-plan")
	fs.IntVar(&f.retries, "retries", 0, "retry transient chaos-run failures up to N times under derived seeds")
	return f
}

// RegisterGuards declares the settings that bound and checkpoint runs,
// for the commands that offer them.
func (f *Flags) RegisterGuards(fs *flag.FlagSet) {
	fs.DurationVar(&f.timeout, "timeout", 0, "wall-clock deadline per simulation run; the run aborts cleanly with partial results (0 = none)")
	fs.BoolVar(&f.check, "check", false, "audit simulator conservation-law invariants during every run")
	fs.StringVar(&f.resume, "resume", "", "checkpoint directory: completed runs are stored in <dir>/store; re-invoking with the same flags replays finished sweep points and re-runs only the missing ones")
	fs.BoolVar(&f.tolerate, "tolerate", false, "degrade gracefully when a run's retry budget is exhausted: keep its partial result with the failure quarantined instead of failing the run")
	fs.Uint64Var(&f.stallWindow, "stall-window", 0, "abort a run that makes no simulated progress for N scheduler steps (livelock watchdog; 0 = off)")
}

// Pool builds the pool every run of the command goes through: canceled
// by SIGINT/SIGTERM (the simulator stops at a clean point with a
// partial result), applying the settings to each run through
// Pool.Defaults, and caching every run in a store: the -resume
// checkpoint directory when one is given, memory otherwise, so no
// invocation simulates a spec twice. prog prefixes the resume notice on
// stderr. The returned function stops the signal handling.
func (f *Flags) Pool(prog string) (*harness.Pool, func(), error) {
	if f.retries < 0 {
		return nil, nil, fmt.Errorf("-retries %d: want 0 or more", f.retries)
	}
	if f.parallel < 0 {
		return nil, nil, fmt.Errorf("-parallel %d: want 0 (GOMAXPROCS) or more", f.parallel)
	}
	eng, err := sim.ParseEngine(f.engine)
	if err != nil {
		return nil, nil, err
	}
	var plan *faults.Plan
	if f.chaosPlan != "" {
		p, err := faults.Parse(f.chaosPlan, f.chaosSeed)
		if err != nil {
			return nil, nil, err
		}
		plan = &p
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	pool := &harness.Pool{
		Workers: f.parallel,
		Context: ctx,
		// The pool applies this exactly once per run, so the settings
		// reach Specs the caller never builds (figure drivers, sweep
		// candidates). A Spec's own fault plan wins over -chaos-plan.
		Defaults: func(s *harness.Spec) {
			s.Engine = eng
			s.Deadline = f.timeout
			s.CheckInvariants = f.check
			s.Retries = f.retries
			s.Tolerate = f.tolerate
			s.StallWindow = f.stallWindow
			if plan != nil && s.FaultPlan == nil {
				s.FaultPlan = plan
			}
		},
	}
	if f.resume == "" {
		pool.Store = store.Memory()
		return pool, stop, nil
	}
	st, err := store.Open(filepath.Join(f.resume, "store"))
	if err != nil {
		stop()
		return nil, nil, err
	}
	pool.Store = st
	if n := st.Len(); n > 0 {
		fmt.Fprintf(os.Stderr, "%s: resuming over %d stored points in %s\n", prog, n, f.resume)
	}
	return pool, stop, nil
}

// Progress returns a Pool.Progress printer writing one stderr line per
// sweep event, each starting with prefix.
func Progress(prefix string) func(harness.PoolProgress) {
	return func(p harness.PoolProgress) {
		verb := "done "
		if p.Started {
			verb = "start"
		}
		fmt.Fprintf(os.Stderr, "%s: [%d/%d] %s %s/%s (worker %d)\n",
			prefix, p.Done, p.Total, verb, p.Benchmark, p.Scheme, p.Worker)
	}
}

// Fatal reports err on stderr and exits with a code distinguishing the
// abort kind (130 canceled, 124 deadline/stalled, 3 invariant, 1
// otherwise), so sweep scripts can tell an interrupt from a timeout
// from a real failure.
func Fatal(prog string, err error) {
	fmt.Fprintln(os.Stderr, prog+":", err)
	if kind, ok := harness.AbortKind(err); ok {
		fmt.Fprintf(os.Stderr, "%s: abort kind: %s\n", prog, kind)
	}
	os.Exit(harness.ExitCode(err))
}
