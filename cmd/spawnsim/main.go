// Command spawnsim runs one benchmark under one execution scheme and
// prints the collected metrics.
//
// Usage:
//
//	spawnsim -bench BFS-graph500 -scheme spawn
//	spawnsim -bench MM-small -scheme threshold:512 -ctasize 64
//	spawnsim -bench SA-thaliana -scheme baseline -series
//	spawnsim -bench BFS-graph500 -scheme spawn -perfetto-out trace.json -metrics-out metrics.json
//	spawnsim -list
//
// Schemes: flat, baseline, offline, spawn, dtbl, threshold:N.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"spawnsim/cmd/internal/runflags"
	"spawnsim/internal/config"
	"spawnsim/internal/harness"
	"spawnsim/internal/metrics"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fatal(err)
	}
}

// run is the whole command. It returns every failure instead of
// exiting, so its deferred cleanup (the CPU profile, the signal
// handler) runs before main exits with the error's code.
func run() error {
	var (
		bench   = flag.String("bench", "BFS-graph500", "benchmark name (see -list)")
		scheme  = flag.String("scheme", "spawn", "execution scheme: flat|baseline|offline|spawn|dtbl|threshold:N")
		ctaSize = flag.Int("ctasize", 0, "override child CTA size (threads)")
		perCTA  = flag.Bool("stream-per-cta", false, "one SWQ per parent CTA instead of per child kernel")
		series  = flag.Bool("series", false, "print concurrency/utilization time series")
		traceN  = flag.Int("trace", 0, "print the last N simulator events (bounded ring; use -trace-out for the full stream)")

		metricsOut  = flag.String("metrics-out", "", "dump end-of-run metrics snapshot to this file (.csv for CSV, JSON otherwise)")
		traceOut    = flag.String("trace-out", "", "stream every simulator event to this JSONL file (full stream, unlike the -trace N tail)")
		perfettoOut = flag.String("perfetto-out", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev or chrome://tracing)")
		heartbeatN  = flag.Uint64("heartbeat", 0, "print a progress heartbeat to stderr every N simulated cycles (0 = off)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		maxCycles   = flag.Uint64("max-cycles", 0, "simulated-cycle budget (0 = simulator default)")

		list = flag.Bool("list", false, "list benchmarks and exit")
	)
	runFlags := runflags.Register(flag.CommandLine)
	runFlags.RegisterGuards(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		fmt.Println("SA-elegans (Figure 21 only)")
		return nil
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "spawnsim: pprof:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// The pool applies the shared run settings; it only fans out for
	// sweep schemes (offline), with byte-identical results.
	pool, done, err := runFlags.Pool("spawnsim")
	if err != nil {
		return err
	}
	defer done()

	spec := harness.Spec{
		Benchmark:    *bench,
		Scheme:       *scheme,
		ChildCTASize: *ctaSize,
		MaxCycles:    *maxCycles,
	}
	if *perCTA {
		spec.StreamMode = kernel.StreamPerParentCTA
	}
	if *series {
		spec.SampleInterval = 2000
	}
	if *metricsOut != "" {
		spec.Metrics = metrics.NewRegistry()
	}

	var sinks []trace.Sink
	var files []*os.File
	var ring *trace.Ring
	if *traceN > 0 {
		ring = trace.New(*traceN)
		sinks = append(sinks, ring)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		files = append(files, f)
		sinks = append(sinks, trace.NewJSONL(f))
	}
	if *perfettoOut != "" {
		f, err := os.Create(*perfettoOut)
		if err != nil {
			return err
		}
		files = append(files, f)
		sinks = append(sinks, trace.NewPerfetto(f, config.K20m().NumSMX))
	}
	spec.TraceSinks = sinks

	if *heartbeatN > 0 {
		spec.HeartbeatEvery = *heartbeatN
		spec.Heartbeat = heartbeatPrinter(os.Stderr)
		// Sweep-level progress rides the heartbeat flag: per-candidate
		// start/finish lines on stderr, serialized by the pool's batch lock.
		pool.Progress = runflags.Progress("sweep")
	}
	out, err := pool.RunSpec(spec)

	// Close sinks before checking the run error so partial traces are
	// flushed (Perfetto closes dangling spans) even on failure.
	for _, s := range sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, f := range files {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		if out != nil && out.Result != nil {
			fmt.Fprintf(os.Stderr, "spawnsim: aborted at cycle %d; partial results below\n", out.Result.Cycles)
			fmt.Println(out.Summary())
		}
		return err
	}

	fmt.Println(out.Summary())
	if out.Threshold >= 0 {
		fmt.Printf("static THRESHOLD used: %d\n", out.Threshold)
	}
	if plan := out.Spec.FaultPlan; plan != nil {
		fmt.Printf("chaos: plan %q seed %d injected %d faults\n",
			plan.String(), plan.Seed, out.FaultsInjected)
	}
	for _, f := range out.Failures {
		if f.Quarantined {
			fmt.Fprintf(os.Stderr, "spawnsim: %s quarantined after %d attempts: %v\n", f.Scheme, f.Attempts, f.Err)
			continue
		}
		fmt.Fprintf(os.Stderr, "spawnsim: sweep candidate %s failed: %v\n", f.Scheme, f.Err)
	}
	if *metricsOut != "" {
		if out.Metrics == nil {
			return fmt.Errorf("no metrics snapshot collected")
		}
		if err := out.Metrics.WriteFile(*metricsOut); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot (%d series) written to %s\n", len(out.Metrics.Metrics), *metricsOut)
	}
	if *series {
		printSeries(os.Stdout, out.Result)
	}
	if ring != nil {
		fmt.Printf("last %d of %d simulator events:\n", len(ring.Events()), ring.Total())
		if err := ring.Dump(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) { runflags.Fatal("spawnsim", err) }

// heartbeatPrinter returns the -heartbeat callback: one line per
// heartbeat on w with the simulated state and the sim-cycles/s since
// the previous line. The runs of a parallel sweep share the printer,
// so a mutex guards its pacing state; a cycle count below the last one
// marks a run that started since and is measured from cycle 0.
func heartbeatPrinter(w io.Writer) func(sim.Progress) {
	var mu sync.Mutex
	lastWall, lastCycle := time.Now(), kernel.Cycle(0)
	return func(p sim.Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		from := lastCycle
		if p.Cycle < from {
			from = 0
		}
		rate := 0.0
		if dt := now.Sub(lastWall).Seconds(); dt > 0 {
			rate = float64(p.Cycle-from) / dt
		}
		lastWall, lastCycle = now, p.Cycle
		fmt.Fprintf(w, "heartbeat: cycle %d, %d live kernels (%d queued), %.2fM sim-cycles/s\n",
			p.Cycle, p.LiveKernels, p.QueuedKernels, rate/1e6)
	}
}

// printSeries writes the -series lines: the parent and child CTA
// concurrency and the mean SMX utilization over the run.
func printSeries(w io.Writer, r *sim.Result) {
	fmt.Fprintf(w, "parent CTAs: %v\n", compact(r.ParentCTASeries.Values))
	fmt.Fprintf(w, "child CTAs : %v\n", compact(r.ChildCTASeries.Values))
	fmt.Fprintf(w, "utilization: %v\n", compact(r.UtilSeries.Values))
}

// compact truncates long series for terminal output.
func compact(vs []float64) []float64 {
	if len(vs) <= 64 {
		return vs
	}
	out := make([]float64, 64)
	for i := range out {
		out[i] = vs[i*len(vs)/64]
	}
	return out
}
