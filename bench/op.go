package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"spawnsim/internal/config"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

// prepared is one benchmark after set-up: its app and parent kernel,
// built from the inputs of seed.
type prepared struct {
	*entry
	seed int64
	app  *workloads.App
	def  *kernel.Def
}

// hooks picks what an op attaches besides its policy.
type hooks struct {
	observe  bool // metrics registry, JSONL trace sink into a byte counter, profiler
	decorate bool // timing decorators around the policy and the sink
}

// opOut is what one op produced and what it cost on the host.
type opOut struct {
	res   *sim.Result
	snap  *metrics.Snapshot
	prof  *profile.Report
	bytes byteCounter  // JSONL bytes written
	pol   *timedPolicy // set when decorated
	sink  *timedSink   // set when decorated
	total time.Duration
	run   time.Duration
	// Heap objects and bytes allocated during Run.
	runAllocs, runAllocBytes uint64
}

type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// runOp is one op: a fresh policy and simulated GPU, host launch, Run, and
// the exports when observed. Every op starts with empty simulated caches.
func runOp(w *workload, p *prepared, h hooks, tr *tracer) (o opOut, err error) {
	cfg := config.K20m()
	o.total = tr.span("op", func() {
		var pol kernel.Policy
		tr.span("policy.New", func() { pol = w.policy(p.app, cfg) })
		if h.decorate {
			o.pol = &timedPolicy{inner: pol}
			pol = o.pol
		}
		opts := sim.Options{Config: cfg, Policy: pol}
		var jsonl *trace.JSONL
		if h.observe {
			opts.Metrics = metrics.NewRegistry()
			opts.Profile = profile.New(cfg.NumSMX, profile.Options{})
			jsonl = trace.NewJSONL(&o.bytes)
			var sink trace.Sink = jsonl
			if h.decorate {
				o.sink = &timedSink{inner: jsonl}
				sink = o.sink
			}
			opts.Sinks = []trace.Sink{sink}
		}
		var g *sim.GPU
		if tr.span("sim.NewChecked", func() { g, err = sim.NewChecked(opts) }); err != nil {
			return
		}
		tr.span("sim.LaunchHost", func() { g.LaunchHost(p.def) })
		objs, bytes := heapAllocs()
		o.run = tr.span("sim.Run", func() { o.res, err = g.Run() })
		objs2, bytes2 := heapAllocs()
		o.runAllocs, o.runAllocBytes = objs2-objs, bytes2-bytes
		if err != nil || !h.observe {
			return
		}
		tr.span("metrics.Snapshot", func() {
			s := opts.Metrics.Snapshot(uint64(o.res.Cycles))
			o.snap = &s
		})
		tr.span("profile.Report", func() { o.prof = opts.Profile.Report() })
		tr.span("trace.Close", func() { err = jsonl.Close() })
	})
	return o, err
}

// passOut summarizes one pass besides its ops.
type passOut struct {
	setup      time.Duration
	inputBytes uint64 // heap bytes allocated by input generation
}

// runner runs the passes of one workload and checks every op.
type runner struct {
	w      *workload
	golden map[string]string // nil: not compared
	seen   map[string]string
	clock  *hostClock // nil: no calibration
	// attempted counts the ops checked, failed those that failed a check.
	attempted int
	failed    int
}

func newRunner(w *workload, golden map[string]string, clock *hostClock) *runner {
	return &runner{w: w, golden: golden, seen: map[string]string{}, clock: clock}
}

// pass rebuilds every input and app of the workload (the set-up), then
// runs each benchmark's op once, checks it and hands it to each. Failed
// ops are counted and not handed on. The set-up and every op start from a
// collected heap, as in a fresh spawnsim process, so where GC cycles fall
// in an op does not depend on the ops before it; the host clock ticks
// between ops, outside their timing.
func (r *runner) pass(seed int64, h hooks, tr *tracer, each func(*prepared, *opOut)) (passOut, error) {
	w := r.w
	var out passOut
	var ps []prepared
	var err error
	runtime.GC()
	out.setup = tr.span("setup", func() {
		for _, name := range w.benches {
			e, lerr := lookup(name)
			if lerr != nil {
				err = lerr
				return
			}
			var build func() *workloads.App
			_, b0 := heapAllocs()
			tr.span(e.input, func() { build = e.gen(seed) })
			_, b1 := heapAllocs()
			out.inputBytes += b1 - b0
			p := prepared{entry: e, seed: seed}
			tr.span(e.ctor, func() { p.app = build() })
			tr.span("workloads.ParentDef", func() { p.def, err = workloads.ParentDef(p.app) })
			if err != nil {
				err = fmt.Errorf("%s: %w", name, err)
				return
			}
			ps = append(ps, p)
		}
	})
	if err != nil {
		return out, err
	}
	for i := range ps {
		runtime.GC()
		r.clock.tick()
		o, err := runOp(w, &ps[i], h, tr)
		if r.check(&ps[i], h, &o, err) {
			each(&ps[i], &o)
		}
	}
	return out, nil
}

// check fails an op whose Run errs, whose scheme identity breaks, whose
// profile does not close, or whose digests differ from the same op in an
// earlier pass or, for ops on the default seed's inputs, from golden.
func (r *runner) check(p *prepared, h hooks, o *opOut, err error) bool {
	r.attempted++
	if err == nil {
		err = r.verify(p, h, o)
	}
	if err != nil {
		r.fail(p, err)
		return false
	}
	return true
}

// fail counts a failed check of an op already attempted.
func (r *runner) fail(p *prepared, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL %s/%s: %v\n", r.w.name, p.name, err)
}

func (r *runner) verify(p *prepared, h hooks, o *opOut) error {
	if err := r.w.identity(p.app, o.res); err != nil {
		return err
	}
	if rep := o.prof; rep != nil {
		if rep.Ticked+rep.Skipped != rep.Cycles || rep.Anomalies != 0 || rep.PartialSpans != 0 {
			return fmt.Errorf("profile: ticked %d + skipped %d != cycles %d, or %d anomalies, %d partial spans",
				rep.Ticked, rep.Skipped, rep.Cycles, rep.Anomalies, rep.PartialSpans)
		}
	}
	ds, err := digests(r.w.name, p.name, o)
	if err != nil {
		return err
	}
	// Hooks change the Result (metrics add per-site decisions), so an op
	// is compared with earlier ops on the same inputs with the same hooks,
	// and with golden only when run with the workload's own hooks.
	native := h.observe == r.w.observed
	for k, d := range ds {
		seenKey := fmt.Sprintf("%s@%d/observe=%t", k, p.seed, h.observe)
		if prev, ok := r.seen[seenKey]; ok && prev != d {
			return fmt.Errorf("%s digest %s differs from an earlier pass (%s)", k, d, prev)
		}
		r.seen[seenKey] = d
		if r.golden != nil && native && p.seed == defaultSeed {
			if want := r.golden[k]; want != d {
				return fmt.Errorf("%s digest %s differs from golden %q", k, d, want)
			}
		}
	}
	return nil
}

// digests returns the sha256 of the op's canonical Result JSON, and of
// its metrics snapshot and profile report when observed, keyed
// "<workload>/<benchmark>/<part>".
func digests(workload, bench string, o *opOut) (map[string]string, error) {
	parts := map[string]any{"result": o.res}
	if o.snap != nil {
		parts["metrics"] = o.snap
	}
	if o.prof != nil {
		parts["profile"] = o.prof
	}
	out := map[string]string{}
	for part, v := range parts {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", part, err)
		}
		sum := sha256.Sum256(b)
		out[workload+"/"+bench+"/"+part] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// heapAllocs returns the cumulative heap objects and bytes allocated.
func heapAllocs() (objects, bytes uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeap returns the heap bytes the last GC found live.
func liveHeap() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}
