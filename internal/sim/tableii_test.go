package sim

import (
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/metrics"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/sim/mem"
	"spawnsim/internal/trace"
)

// TestTableIIProbes measures Table II's K20m parameters through the
// engine's public surface (host launches, device launches, the trace
// stream) and the memory hierarchy's (line accesses, their completion
// cycles, the metrics series), and asserts the paper's values,
// independently of how the GMU, the SMXs, the launch pipeline and the
// memory system implement them.
func TestTableIIProbes(t *testing.T) {
	cfg := config.K20m()

	// probeRun launches defs from the host on an idle K20m and returns
	// the run's trace.
	probeRun := func(t *testing.T, pol kernel.Policy, defs ...*kernel.Def) []trace.Event {
		t.Helper()
		sink := &collect{}
		g := New(Options{Config: cfg, Policy: pol, Sinks: []trace.Sink{sink}})
		for _, d := range defs {
			g.LaunchHost(d)
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return sink.events
	}
	// firstCompletion is the cycle of the first event of kind.
	firstCompletion := func(t *testing.T, events []trace.Event, kind trace.Kind) uint64 {
		t.Helper()
		for _, e := range events {
			if e.Kind == kind {
				return e.Cycle
			}
		}
		t.Fatalf("no %v event", kind)
		return 0
	}
	// longCTAs is a host grid of ctas CTAs of threads threads each, every
	// warp busy long enough that all free slots fill before any CTA ends.
	longCTAs := func(name string, ctas, threads int) *kernel.Def {
		return &kernel.Def{Name: name, GridCTAs: ctas, CTAThreads: threads, RegsPerThread: 16,
			NewProgram: aluProgram(500, 8)}
	}

	// smxSlots checks that exactly perSMX CTAs of the grid run on every
	// SMX before the first CTA completes, and that the one CTA over the
	// machine's capacity is placed only after a completion.
	smxSlots := func(t *testing.T, perSMX, threads int) {
		ctas := cfg.NumSMX*perSMX + 1
		events := probeRun(t, runtime.Flat{}, longCTAs("slots", ctas, threads))
		freed := firstCompletion(t, events, trace.CTACompleted)
		early := make([]int, cfg.NumSMX)
		var lastPlaced uint64
		for _, e := range events {
			if e.Kind != trace.CTAPlaced {
				continue
			}
			if e.Cycle < freed {
				early[e.Extra]++
			}
			if e.CTA == ctas-1 {
				lastPlaced = e.Cycle
			}
		}
		for smx, n := range early {
			if n != perSMX {
				t.Errorf("SMX %d ran %d CTAs of %d threads before the first completion, want %d", smx, n, threads, perSMX)
			}
		}
		if lastPlaced < freed {
			t.Errorf("CTA %d was placed at cycle %d, before the first completion at %d: it should wait", ctas-1, lastPlaced, freed)
		}
	}

	t.Run("16 CTAs per SMX", func(t *testing.T) {
		if cfg.MaxCTAsPerSM != 16 {
			t.Fatalf("MaxCTAsPerSM = %d, want Table II's 16", cfg.MaxCTAsPerSM)
		}
		// 32-thread CTAs: 16 of them hold 512 threads, so the CTA
		// limit binds, not the thread limit.
		smxSlots(t, 16, 32)
	})

	t.Run("2048 threads per SMX", func(t *testing.T) {
		if cfg.MaxThreadsPerSM != 2048 {
			t.Fatalf("MaxThreadsPerSM = %d, want Table II's 2048", cfg.MaxThreadsPerSM)
		}
		// 256-thread CTAs: 8 of them fill 2048 threads with 8 CTA slots
		// to spare, so the 2049th thread is what waits.
		smxSlots(t, 2048/256, 256)
	})

	t.Run("32 HWQs", func(t *testing.T) {
		if cfg.NumHWQs != 32 {
			t.Fatalf("NumHWQs = %d, want Table II's 32", cfg.NumHWQs)
		}
		// 33 independent one-CTA host kernels: the SMXs have room for
		// all of them, so only the HWQ count can hold the 33rd back.
		var defs []*kernel.Def
		for range 33 {
			defs = append(defs, longCTAs("hwq", 1, 32))
		}
		events := probeRun(t, runtime.Flat{}, defs...)
		freed := firstCompletion(t, events, trace.KernelCompleted)
		started := map[int]uint64{}
		for _, e := range events {
			if e.Kind == trace.CTAPlaced {
				started[e.Kernel] = e.Cycle
			}
		}
		early := 0
		for id := 1; id <= 33; id++ {
			if started[id] < freed {
				early++
			}
		}
		if early != 32 {
			t.Errorf("%d kernels started before the first completion, want 32", early)
		}
		if started[33] < freed {
			t.Errorf("kernel 33 started at cycle %d, before the first completion at %d: it should wait for an HWQ", started[33], freed)
		}
	})

	t.Run("launch latency 1721x+20210", func(t *testing.T) {
		if cfg.LaunchOverheadA != 1721 || cfg.LaunchOverheadB != 20210 {
			t.Fatalf("launch overhead = %d·x + %d, want Table II's 1721·x + 20210", cfg.LaunchOverheadA, cfg.LaunchOverheadB)
		}
		// One parent warp proposes four children in one launch
		// instruction; every child is accepted, so the x-th is the x-th
		// concurrent launch of that warp. The children start on an
		// otherwise idle GPU.
		const children = 4
		child := childDef(32, 1)
		parent := &kernel.Def{Name: "parent", GridCTAs: 1, CTAThreads: 32, RegsPerThread: 16,
			NewProgram: func(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
				launched := false
				return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
					if launched {
						return false
					}
					launched = true
					in.Kind = kernel.InstrLaunch
					for lane := range children {
						in.Candidates = append(in.Candidates, launchOf(lane, 32, child))
					}
					return true
				})
			}}
		events := probeRun(t, runtime.Threshold{T: 0}, parent)
		submitted, started := map[int]uint64{}, map[int]uint64{}
		for _, e := range events {
			switch {
			case e.Kind == trace.KernelSubmitted:
				submitted[e.Kernel] = e.Cycle
			case e.Kind == trace.CTAPlaced && e.CTA == 0:
				started[e.Kernel] = e.Cycle
			}
		}
		for x := 1; x <= children; x++ {
			id := 1 + x // the parent is kernel 1, children follow in lane order
			got := started[id] - submitted[id]
			if want := uint64(1721*x + 20210); got != want {
				t.Errorf("launch %d: first CTA %d cycles after the launch, want 1721·%d + 20210 = %d", x, got, x, want)
			}
		}
	})
	t.Run("12 L2 partitions", func(t *testing.T) {
		if cfg.L2Partitions != 12 {
			t.Fatalf("L2Partitions = %d, want Table II's 12", cfg.L2Partitions)
		}
		// A stream of distinct lines, each missing its L1, reaches
		// every L2 partition; the partitions are the series labels.
		h := mem.NewHierarchy(cfg)
		reg := metrics.NewRegistry()
		h.Instrument(reg)
		const lines = 1000
		for line := range uint64(lines) {
			h.Access(kernel.Cycle(line), 0, []uint64{line * uint64(cfg.CacheLineBytes)})
		}
		reached := map[string]float64{}
		for _, m := range reg.Snapshot(lines).Metrics {
			if m.Name != "mem_l2_hits" && m.Name != "mem_l2_misses" {
				continue
			}
			for _, l := range m.Labels {
				if l.Key == "partition" {
					reached[l.Value] += m.Value
				}
			}
		}
		total := 0.0
		for _, n := range reached {
			if n == 0 {
				t.Errorf("an L2 partition series saw no access: %v", reached)
			}
			total += n
		}
		if len(reached) != 12 || total != lines {
			t.Errorf("%d lines reached %d partition series with %v accesses, want 12 series and %d", lines, len(reached), total, lines)
		}
	})

	t.Run("6 memory controllers", func(t *testing.T) {
		if cfg.MemControllers != 6 || cfg.L2Partitions/cfg.MemControllers != 2 {
			t.Fatalf("%d memory controllers over %d partitions, want Table II's 6 over 12", cfg.MemControllers, cfg.L2Partitions)
		}
		parts := uint64(cfg.L2Partitions)
		// lineOf is the q-th line of partition p: lines interleave
		// across the partitions.
		lineOf := func(p int, q uint64) uint64 { return q*parts + uint64(p) }
		// done issues the lines at one cycle, each from its own SMX so
		// no L1 port is shared, on a hierarchy where the line eight
		// places further on in each one's partition was read long
		// before: with 8 banks per controller and 16 lines per 2 KB
		// row it opened the DRAM row, so every probed line, a cold L2
		// miss, hits it. It returns the completion cycle of the last
		// line.
		done := func(lines ...uint64) kernel.Cycle {
			h := mem.NewHierarchy(cfg)
			for i, line := range lines {
				h.Access(0, i, []uint64{(line + 8*parts) * uint64(cfg.CacheLineBytes)})
			}
			var last kernel.Cycle
			for i, line := range lines {
				last = h.Access(100_000, i, []uint64{line * uint64(cfg.CacheLineBytes)})
			}
			return last
		}
		const q = 5
		for k := range cfg.MemControllers {
			alone := done(lineOf(2*k+1, q))
			// Partitions 2k and 2k+1 share controller k: the same
			// partition-local line index lands on one of its banks,
			// so the second request waits for the first.
			if got := done(lineOf(2*k, q), lineOf(2*k+1, q)); got <= alone {
				t.Errorf("partitions %d and %d: the second request completed at %d, alone at %d; they should serialize on a bank", 2*k, 2*k+1, got, alone)
			}
			// A partition of another controller does not delay it.
			other := (2*k + 2) % cfg.L2Partitions
			if got := done(lineOf(other, q), lineOf(2*k+1, q)); got != alone {
				t.Errorf("partitions %d and %d: the second request completed at %d, alone at %d; other controllers should overlap", other, 2*k+1, got, alone)
			}
		}
	})
}
