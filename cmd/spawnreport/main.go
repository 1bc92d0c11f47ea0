// Command spawnreport turns a run's cycle-attribution profile into a
// bottleneck report: top stall reasons per component, the
// skippable-cycle ratio bounding the event-wheel rewrite's payoff,
// per-launch-site lifecycle stage latencies, and queue-depth/occupancy
// timelines (optionally as Perfetto counter tracks).
//
// Usage:
//
//	spawnreport -bench BFS-graph500 -scheme spawn
//	spawnreport -bench MM-small -scheme spawn -format json -out report.json
//	spawnreport -all -scheme spawn               # per-benchmark skippable table
//	spawnreport -trace run.jsonl -format json    # span report from a recorded stream
//	spawnreport -bench MM-small -perfetto-out counters.json
//
// Reports are deterministic: the same spec produces byte-identical
// output on every run and at every -parallel width. Progress (-progress)
// goes to stderr and never contaminates the report stream.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"spawnsim/cmd/internal/runflags"
	"spawnsim/internal/harness"
	"spawnsim/internal/profile"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

func main() {
	var (
		bench   = flag.String("bench", "BFS-graph500", "benchmark name")
		scheme  = flag.String("scheme", "spawn", "execution scheme: flat|baseline|offline|spawn|dtbl|threshold:N")
		all     = flag.Bool("all", false, "profile every benchmark and print the per-benchmark skippable-cycle table")
		ctaSize = flag.Int("ctasize", 0, "override child CTA size (threads)")
		perCTA  = flag.Bool("stream-per-cta", false, "one SWQ per parent CTA instead of per child kernel")

		maxCycles   = flag.Uint64("max-cycles", 0, "simulated-cycle budget (0 = simulator default)")
		sampleEvery = flag.Uint64("sample-every", 0, "timeline sampling period in cycles (0 = profiler default)")
		tracePath   = flag.String("trace", "", "ingest a recorded JSONL event stream instead of running a simulation (span report only)")

		format      = flag.String("format", "text", "report format: text|json|csv")
		out         = flag.String("out", "", "write the report to this file (default stdout)")
		perfettoOut = flag.String("perfetto-out", "", "write the timeline as Perfetto counter tracks to this file")
		progress    = flag.Bool("progress", false, "print sweep progress to stderr")
	)
	runFlags := runflags.Register(flag.CommandLine)
	flag.Parse()

	if *format != "text" && *format != "json" && *format != "csv" {
		fatal(fmt.Errorf("unknown -format %q (want text, json, or csv)", *format))
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}

	// Ingest mode: replay a recorded stream through the span assembler.
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		rep, err := ingestTrace(f, profile.Options{SampleEvery: *sampleEvery})
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := writeReport(w, rep, *format); err != nil {
			fatal(err)
		}
		return
	}

	pool, done, err := runFlags.Pool("spawnreport")
	if err != nil {
		fatal(err)
	}
	defer done()
	if *progress {
		pool.Progress = runflags.Progress("spawnreport")
	}
	spec := harness.Spec{
		Benchmark:    *bench,
		Scheme:       *scheme,
		ChildCTASize: *ctaSize,
		MaxCycles:    *maxCycles,
		Profile:      &profile.Options{SampleEvery: *sampleEvery},
	}
	if *perCTA {
		spec.StreamMode = kernel.StreamPerParentCTA
	}

	if *all {
		rows, err := profileAll(pool, spec)
		if err != nil {
			fatal(err)
		}
		if err := writeBenchTable(w, rows, *format); err != nil {
			fatal(err)
		}
		return
	}

	o, err := pool.RunSpec(spec)
	if err != nil {
		fatal(err)
	}
	if o.Profile == nil {
		fatal(fmt.Errorf("run produced no profile report"))
	}
	if err := writeReport(w, o.Profile, *format); err != nil {
		fatal(err)
	}
	if *perfettoOut != "" {
		f, err := os.Create(*perfettoOut)
		if err != nil {
			fatal(err)
		}
		err = writePerfettoCounters(f, o.Profile)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) { runflags.Fatal("spawnreport", err) }

// jsonlEvent mirrors the trace.JSONL wire schema.
type jsonlEvent struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"`
	Kernel int    `json:"kernel"`
	CTA    int    `json:"cta"`
	Extra  int    `json:"extra"`
}

// ingestTrace replays a JSONL event stream through the profiler's span
// assembler and returns the resulting report. Without tick data only
// the lifecycle-span view is populated; launch sites are unknown in a
// bare stream, so spans key under the "(trace)" site. Lines with
// unknown kinds are skipped (forward compatibility), malformed JSON is
// an error.
func ingestTrace(r io.Reader, opts profile.Options) (*profile.Report, error) {
	prof := profile.New(0, opts)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var last uint64
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		kind, ok := trace.ParseKind(je.Kind)
		if !ok {
			continue
		}
		if je.Cycle > last {
			last = je.Cycle
		}
		prof.Record(trace.Event{Cycle: je.Cycle, Kind: kind, Kernel: je.Kernel, CTA: je.CTA, Extra: je.Extra})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	prof.Finish(last)
	return prof.Report(), nil
}

// writeReport serializes one report in the requested format.
func writeReport(w io.Writer, rep *profile.Report, format string) error {
	switch format {
	case "json":
		return rep.WriteJSON(w)
	case "csv":
		return rep.WriteCSV(w)
	default:
		return rep.WriteText(w)
	}
}

// benchRow pairs one benchmark with its profile report.
type benchRow struct {
	Benchmark string          `json:"benchmark"`
	Report    *profile.Report `json:"report"`
}

// profileAll runs every benchmark under the spec's scheme through the
// pool and returns rows in benchmark-name (= submission) order.
func profileAll(pool *harness.Pool, spec harness.Spec) ([]benchRow, error) {
	names := workloads.Names()
	specs := make([]harness.Spec, len(names))
	for i, n := range names {
		s := spec
		s.Benchmark = n
		specs[i] = s
	}
	outs, err := pool.Run(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]benchRow, len(names))
	for i, o := range outs {
		if o == nil || o.Profile == nil {
			return nil, fmt.Errorf("benchmark %s produced no profile report", names[i])
		}
		rows[i] = benchRow{Benchmark: names[i], Report: o.Profile}
	}
	return rows, nil
}

// dominantStall names the component/stall pair with the largest stall
// count across the report ("-" when nothing stalled).
func dominantStall(rep *profile.Report) string {
	name, best := "-", uint64(0)
	for _, c := range rep.Components {
		if stall, n := c.TopStall(); n > best {
			name, best = c.Name+"/"+stall, n
		}
	}
	return name
}

// writeBenchTable renders the per-benchmark skippable-cycle table — the
// go/no-go input for the event-wheel rewrite. text and csv carry the
// summary columns; json carries the full per-benchmark reports.
func writeBenchTable(w io.Writer, rows []benchRow, format string) error {
	switch format {
	case "json":
		data, err := json.MarshalIndent(struct {
			Benchmarks []benchRow `json:"benchmarks"`
		}{rows}, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		_, err = w.Write(data)
		return err
	case "csv":
		if _, err := fmt.Fprintln(w, "benchmark,cycles,ticked_cycles,skipped_cycles,engine_skip_ratio,skippable_ratio,dominant_stall"); err != nil {
			return err
		}
		for _, r := range rows {
			rep := r.Report
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%s,%s,%s\n",
				r.Benchmark, rep.Cycles, rep.Ticked, rep.Skipped,
				strconv.FormatFloat(rep.EngineSkipRatio, 'g', -1, 64),
				strconv.FormatFloat(rep.SkippableRatio, 'g', -1, 64),
				dominantStall(rep)); err != nil {
				return err
			}
		}
		return nil
	default:
		if _, err := fmt.Fprintf(w, "%-16s %12s %10s %10s %9s %10s  %s\n",
			"benchmark", "cycles", "ticked", "skipped", "engine%", "skippable%", "dominant-stall"); err != nil {
			return err
		}
		for _, r := range rows {
			rep := r.Report
			if _, err := fmt.Fprintf(w, "%-16s %12d %10d %10d %9.1f %10.1f  %s\n",
				r.Benchmark, rep.Cycles, rep.Ticked, rep.Skipped,
				100*rep.EngineSkipRatio, 100*rep.SkippableRatio, dominantStall(rep)); err != nil {
				return err
			}
		}
		return nil
	}
}

// counterTracks maps timeline fields to Perfetto counter tracks, in the
// fixed emission order that makes exports byte-identical.
var counterTracks = []struct {
	name string
	get  func(profile.Sample) float64
}{
	{"queued kernels", func(s profile.Sample) float64 { return float64(s.QueuedKernels) }},
	{"pending CTAs", func(s profile.Sample) float64 { return float64(s.PendingCTAs) }},
	{"active warps", func(s profile.Sample) float64 { return float64(s.ActiveWarps) }},
	{"busy SMXs", func(s profile.Sample) float64 { return float64(s.BusySMXs) }},
	{"busy DRAM banks", func(s profile.Sample) float64 { return float64(s.BusyBanks) }},
	{"SMX utilization", func(s profile.Sample) float64 { return s.Utilization }},
}

// writePerfettoCounters exports the report's timeline as Perfetto
// counter tracks (queue depths, occupancy). The tracks are introduced
// in counterTracks order on the first sample, so track ids — and the
// whole file — are stable across exports of the same report.
func writePerfettoCounters(w io.Writer, rep *profile.Report) error {
	p := trace.NewPerfetto(w, 0)
	for _, s := range rep.Timeline {
		for _, t := range counterTracks {
			p.Counter(t.name, s.Cycle, t.get(s))
		}
	}
	return p.Close()
}
