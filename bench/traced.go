package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"spawnsim/internal/profile"
	"spawnsim/internal/sim"
	"spawnsim/internal/store"
)

// spansDir receives <workload>.spans.jsonl from every traced run.
const spansDir = "out"

// runTraced is the traced run. After the same warm-up as runE2E it makes
// passes on the seed's inputs that each serve one group of per-layer
// metrics, so no pass's instruments inflate another's numbers:
//
//   - plain: no hooks; host time and allocations of Run.
//   - counts: metrics, JSONL sink and profiler attached; simulated counts,
//     export times, and the hooks' overhead against plain.
//   - decorated: as counts, with timing decorators on the policy and sink,
//     plus a store Put and Get of every Result.
//   - cpu: the workload as the untraced run runs it, under the CPU
//     profiler, for the untraced run's pass count minus three, at least two.
//
// The first three record spans; all of them are written to spansDir.
func runTraced(r *runner, seed int64, seconds int) (map[string]metric, error) {
	w := r.w
	native := hooks{observe: w.observed}
	if _, err := r.pass(defaultSeed, native, nil, func(*prepared, *opOut) {}); err != nil {
		return nil, err
	}
	tr := newTracer()
	ms := map[string]metric{}
	var setups []passOut

	tr.pass = "plain"
	var plainOps, runTime time.Duration
	var cycles, allocs, allocBytes, kernels, groups, transactions, dram uint64
	var queueLat, l1, l2 float64
	var nOps int
	p, err := r.pass(seed, hooks{}, tr, func(_ *prepared, o *opOut) {
		nOps++
		plainOps += o.total
		runTime += o.run
		allocs += o.runAllocs
		allocBytes += o.runAllocBytes
		r := o.res
		cycles += uint64(r.Cycles)
		kernels += uint64(r.ChildKernels)
		groups += uint64(r.DTBLGroups)
		transactions += r.Transactions
		dram += r.DRAMAccesses
		queueLat += r.QueueLatency
		l1 += r.L1HitRate
		l2 += r.L2HitRate
	})
	if err != nil {
		return nil, err
	}
	if nOps == 0 {
		return nil, fmt.Errorf("%s: every op failed", w.name)
	}
	setups = append(setups, p)
	kcycles := float64(cycles) / 1e3
	ops := float64(nOps)
	ms["sim.run_ms"] = metric{tr.selfMs("plain", "sim.Run"), "ms"}
	ms["sim.cycles"] = metric{float64(cycles), "cycles"}
	ms["sim.allocs_per_kcycle"] = metric{float64(allocs) / kcycles, "1/kcycle"}
	ms["sim.alloc_kb_per_kcycle"] = metric{float64(allocBytes) / 1024 / kcycles, "KB/kcycle"}
	ms["sim.child_kernels"] = metric{float64(kernels), "count"}
	ms["sim.dtbl_groups"] = metric{float64(groups), "count"}
	ms["mem.transactions"] = metric{float64(transactions), "count"}
	ms["mem.dram_accesses"] = metric{float64(dram), "count"}
	ms["mem.l1_hit_rate"] = metric{l1 / ops, "ratio"}
	ms["mem.l2_hit_rate"] = metric{l2 / ops, "ratio"}
	ms["gmu.queue_latency_cycles"] = metric{queueLat / ops, "cycles"}

	tr.pass = "counts"
	var countsOps time.Duration
	var merged *profile.Report
	var series, traceBytes int64
	p, err = r.pass(seed, hooks{observe: true}, tr, func(_ *prepared, o *opOut) {
		countsOps += o.total
		merged = profile.MergeReports(merged, o.prof)
		series += int64(len(o.snap.Metrics))
		traceBytes += int64(o.bytes)
	})
	if err != nil {
		return nil, err
	}
	if merged == nil {
		return nil, fmt.Errorf("%s: every observed op failed", w.name)
	}
	setups = append(setups, p)
	ms["sim.ticked"] = metric{float64(merged.Ticked), "cycles"}
	ms["sim.ns_per_tick"] = metric{float64(runTime) / float64(merged.Ticked), "ns"}
	ms["sim.skip_ratio"] = metric{merged.EngineSkipRatio, "ratio"}
	ms["sim.skippable_ratio"] = metric{merged.SkippableRatio, "ratio"}
	for k, v := range componentShares(merged) {
		ms[k] = metric{v, "ratio"}
	}
	ms["metrics.series"] = metric{float64(series) / float64(merged.Runs), "count"}
	ms["metrics.snapshot_ms"] = metric{tr.selfMs("counts", "metrics.Snapshot"), "ms"}
	ms["profile.report_ms"] = metric{tr.selfMs("counts", "profile.Report"), "ms"}
	ms["trace.bytes"] = metric{float64(traceBytes), "bytes"}
	ms["obs.overhead_frac"] = metric{float64(countsOps)/float64(plainOps) - 1, "ratio"}

	tr.pass = "decorated"
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(spansDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	probe := storeProbe{st: st}
	var pol timedPolicy
	var sink timedSink
	p, err = r.pass(seed, hooks{observe: true, decorate: true}, tr, func(b *prepared, o *opOut) {
		pol.decideCalls += o.pol.decideCalls
		pol.hookCalls += o.pol.hookCalls
		pol.accepts += o.pol.accepts
		pol.decide += o.pol.decide
		pol.hook += o.pol.hook
		sink.events += o.sink.events
		sink.record += o.sink.record
		if err := probe.roundTrip(tr, []any{w.name, b.name, seed}, o.res); err != nil {
			r.fail(b, fmt.Errorf("store: %w", err))
		}
	})
	if err != nil {
		return nil, err
	}
	setups = append(setups, p)
	calls := pol.decideCalls + pol.hookCalls
	ms["policy.decide_calls"] = metric{float64(pol.decideCalls), "count"}
	ms["policy.hook_calls"] = metric{float64(pol.hookCalls), "count"}
	ms["policy.decide_ns"] = metric{float64(pol.decide) / float64(max(pol.decideCalls, 1)), "ns"}
	ms["policy.call_ns"] = metric{float64(pol.decide+pol.hook) / float64(max(calls, 1)), "ns"}
	ms["policy.accept_ratio"] = metric{float64(pol.accepts) / float64(max(pol.decideCalls, 1)), "ratio"}
	ms["trace.events"] = metric{float64(sink.events), "count"}
	ms["trace.record_ns"] = metric{float64(sink.record) / float64(max(sink.events, 1)), "ns"}
	n := float64(max(probe.entries, 1))
	ms["store.key_us"] = metric{float64(probe.key) / 1e3 / n, "us"}
	ms["store.put_ms"] = metric{float64(probe.put) / 1e6 / n, "ms"}
	ms["store.get_ms"] = metric{float64(probe.get) / 1e6 / n, "ms"}
	ms["store.entry_kb"] = metric{float64(probe.bytes) / 1024 / n, "KB"}

	var gen, build, alloc []float64
	for i, pass := range []string{"plain", "counts", "decorated"} {
		gen = append(gen, tr.selfMs(pass, "inputs."))
		build = append(build, tr.selfMs(pass, "workloads."))
		alloc = append(alloc, float64(setups[i].inputBytes)/(1<<20))
	}
	ms["inputs.gen_ms"] = metric{quantile(gen, 0.5), "ms"}
	ms["workloads.build_ms"] = metric{quantile(build, 0.5), "ms"}
	ms["inputs.alloc_mb"] = metric{quantile(alloc, 0.5), "MB"}

	shares, err := profileCPU(r, seed, max(2, w.timedPasses(seconds)-3), native)
	if err != nil {
		return nil, err
	}
	for _, l := range []string{"workloads", "sim", "smx", "gmu", "mem", "kernel", "policy", "metrics", "profile"} {
		ms[l+".cpu_frac"] = metric{shares[l], "ratio"}
	}
	ms["gort.gc_frac"] = metric{shares["gort.gc"], "ratio"}
	ms["gort.malloc_frac"] = metric{shares["gort.malloc"], "ratio"}

	ms["host.slowdown"] = metric{r.clock.slowdown(), "ratio"}

	path := filepath.Join(spansDir, w.name+".spans.jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: traced, %d spans in %s\n", w.name, seed, len(tr.spans), path)
	return ms, nil
}

// storeProbe times a store round trip of every Result it is given.
type storeProbe struct {
	st             *store.Store
	key, put, get  time.Duration
	bytes, entries int
}

// roundTrip stores the Result JSON under id's content address and reads
// it back.
func (s *storeProbe) roundTrip(tr *tracer, id any, res *sim.Result) error {
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	var key string
	if s.key += tr.span("store.Key", func() { key, err = store.Key("spawnsim-bench-v1", id) }); err != nil {
		return err
	}
	if s.put += tr.span("store.Put", func() { err = s.st.Put(key, blob) }); err != nil {
		return err
	}
	var got []byte
	var ok bool
	s.get += tr.span("store.Get", func() { got, ok = s.st.Get(key) })
	if !ok || !bytes.Equal(got, blob) {
		return fmt.Errorf("get %s returned other bytes than put", key)
	}
	s.bytes += len(blob)
	s.entries++
	return nil
}

// componentShares turns the profiler's per-component cycle counts into
// fractions of all simulated cycles (per SMX for the SMX rows).
func componentShares(r *profile.Report) map[string]float64 {
	var smxBusy, smxLat, nSMX uint64
	out := map[string]float64{}
	cyc := float64(r.Cycles)
	for _, c := range r.Components {
		switch c.Name {
		case "gmu":
			out["gmu.stall_queue_frac"] = float64(c.StallQueue) / cyc
		case "mem":
			out["mem.busy_frac"] = float64(c.Busy) / cyc
		case "hwq", "dram":
		default: // smx0, smx1, ...
			smxBusy += c.Busy
			smxLat += c.StallLatency
			nSMX++
		}
	}
	out["smx.busy_frac"] = float64(smxBusy) / cyc / float64(max(nSMX, 1))
	out["smx.stall_latency_frac"] = float64(smxLat) / cyc / float64(max(nSMX, 1))
	return out
}

// profileCPU runs passes under the CPU profiler and returns each layer's
// share of the samples.
func profileCPU(r *runner, seed int64, passes int, h hooks) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	var err error
	for range passes {
		if _, err = r.pass(seed, h, nil, func(*prepared, *opOut) {}); err != nil {
			break
		}
	}
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return cpuShares(samples), nil
}
