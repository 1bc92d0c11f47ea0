package gmu

import (
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
)

func prog(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
	return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool { return false })
}

func mkKernel(id int, ctas int, stream kernel.StreamID) *kernel.Kernel {
	return &kernel.Kernel{
		ID:       id,
		Stream:   stream,
		Def:      &kernel.Def{Name: "k", CTAThreads: 32, NewProgram: prog},
		GridCTAs: ctas,
		Threads:  ctas * 32,
	}
}

// acceptAll dispatches every CTA offered, advancing NextCTA like the
// engine does.
func acceptAll(k *kernel.Kernel) bool { k.NextCTA++; return true }

func rejectAll(k *kernel.Kernel) bool { return false }

func TestEnqueueDispatchSingleKernel(t *testing.T) {
	g := New(config.K20m())
	k := mkKernel(1, 3, 5)
	k.ArrivalCycle = 10
	g.Enqueue(k)
	if g.PendingCTAs() != 3 {
		t.Fatalf("PendingCTAs = %d, want 3", g.PendingCTAs())
	}
	placed := g.Dispatch(25, acceptAll)
	if placed != 2 { // CTADispatchRate = 2
		t.Fatalf("placed = %d, want 2 (dispatch rate)", placed)
	}
	placed = g.Dispatch(26, acceptAll)
	if placed != 1 {
		t.Fatalf("placed = %d, want 1", placed)
	}
	if g.PendingCTAs() != 0 {
		t.Errorf("PendingCTAs = %d, want 0", g.PendingCTAs())
	}
	if got := g.QueueLatency.Value(); got != 15 {
		t.Errorf("queue latency = %v, want 15", got)
	}
}

func TestSameStreamSerializes(t *testing.T) {
	g := New(config.K20m())
	k1 := mkKernel(1, 1, 7)
	k2 := mkKernel(2, 1, 7) // same SWQ -> same HWQ, behind k1
	g.Enqueue(k1)
	g.Enqueue(k2)
	g.Dispatch(0, acceptAll)
	if !k1.Dispatched() {
		t.Fatal("k1 not dispatched")
	}
	if k2.NextCTA != 0 {
		t.Fatal("k2 dispatched while k1 still holds the HWQ head")
	}
	// k1 completes -> k2 unblocks.
	k1.CTAsDone = 1
	g.KernelCompleted(1, k1)
	g.Dispatch(1, acceptAll)
	if !k2.Dispatched() {
		t.Error("k2 not dispatched after k1 completed")
	}
}

func TestHWQFalseSerialization(t *testing.T) {
	// Different streams that hash to the same HWQ also serialize
	// (HyperQ false serialization).
	cfg := config.K20m()
	g := New(cfg)
	k1 := mkKernel(1, 1, 3)
	k2 := mkKernel(2, 1, kernel.StreamID(3+cfg.NumHWQs))
	g.Enqueue(k1)
	g.Enqueue(k2)
	g.Dispatch(0, acceptAll)
	if k2.NextCTA != 0 {
		t.Error("stream 3 and 35 should share HWQ 3 and serialize")
	}
}

func TestDistinctStreamsRunConcurrently(t *testing.T) {
	g := New(config.K20m())
	k1 := mkKernel(1, 1, 1)
	k2 := mkKernel(2, 1, 2)
	g.Enqueue(k1)
	g.Enqueue(k2)
	g.Dispatch(0, acceptAll)
	if !k1.Dispatched() || !k2.Dispatched() {
		t.Error("kernels in distinct HWQs should both dispatch within one tick")
	}
	if g.ConcurrentKernelSlots() != 2 {
		t.Errorf("ConcurrentKernelSlots = %d, want 2", g.ConcurrentKernelSlots())
	}
}

func TestDispatchBlockedByResources(t *testing.T) {
	g := New(config.K20m())
	g.Enqueue(mkKernel(1, 4, 1))
	if placed := g.Dispatch(0, rejectAll); placed != 0 {
		t.Errorf("placed = %d, want 0 when placement fails", placed)
	}
	if g.PendingCTAs() != 4 {
		t.Errorf("PendingCTAs = %d, want 4", g.PendingCTAs())
	}
	if !g.HasDispatchable() {
		t.Error("HasDispatchable should remain true")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	g := New(config.K20m())
	k1 := mkKernel(1, 8, 1)
	k2 := mkKernel(2, 8, 2)
	g.Enqueue(k1)
	g.Enqueue(k2)
	// With rate 2, one tick should place one CTA from each kernel.
	g.Dispatch(0, acceptAll)
	if k1.NextCTA != 1 || k2.NextCTA != 1 {
		t.Errorf("RR dispatch = (%d,%d), want (1,1)", k1.NextCTA, k2.NextCTA)
	}
}

func TestDirectQueueBypassesHWQLimit(t *testing.T) {
	cfg := config.K20m()
	g := New(cfg)
	// Fill every HWQ with a busy kernel (dispatched, not complete).
	for i := 0; i < cfg.NumHWQs; i++ {
		k := mkKernel(100+i, 1, kernel.StreamID(i))
		g.Enqueue(k)
	}
	for i := 0; i < cfg.NumHWQs; i++ {
		g.Dispatch(kernel.Cycle(i), acceptAll)
	}
	if g.HasDispatchable() {
		t.Fatal("all HWQ heads should be fully dispatched")
	}
	// An aggregated (DTBL) group still dispatches.
	agg := mkKernel(999, 2, 0)
	agg.Aggregated = true
	g.Enqueue(agg)
	if placed := g.Dispatch(50, acceptAll); placed != 2 {
		t.Errorf("aggregated placed = %d, want 2 despite full HWQs", placed)
	}
}

func TestDirectQueueOutOfOrderCompletion(t *testing.T) {
	g := New(config.K20m())
	a := mkKernel(1, 1, 0)
	a.Aggregated = true
	b := mkKernel(2, 1, 0)
	b.Aggregated = true
	g.Enqueue(a)
	g.Enqueue(b)
	g.Dispatch(0, acceptAll) // both placed (rate 2)
	if !a.Dispatched() || !b.Dispatched() {
		t.Fatal("both aggregated groups should dispatch")
	}
	// b completes before a: must not panic, and removes b only.
	b.CTAsDone = 1
	g.KernelCompleted(1, b)
	a.CTAsDone = 1
	g.KernelCompleted(1, a)
	if g.QueuedKernels() != 0 {
		t.Errorf("QueuedKernels = %d, want 0", g.QueuedKernels())
	}
}

func TestKernelCompletedPanicsOnNonHead(t *testing.T) {
	g := New(config.K20m())
	k1 := mkKernel(1, 1, 7)
	k2 := mkKernel(2, 1, 7)
	g.Enqueue(k1)
	g.Enqueue(k2)
	defer func() {
		if recover() == nil {
			t.Error("completing a non-head kernel should panic")
		}
	}()
	g.KernelCompleted(1, k2)
}

// TestCheckInvariantsRejectsReleasedMembers plants a released kernel and
// a recycled one whose new stream maps to another HWQ in the queues:
// the audit must report both.
func TestCheckInvariantsRejectsReleasedMembers(t *testing.T) {
	g := New(config.K20m())
	k := mkKernel(1, 2, 3)
	g.Enqueue(k)
	if err := g.CheckInvariants(0); err != nil {
		t.Fatalf("audit of a live queue: %v", err)
	}
	k.MarkReleased()
	if err := g.CheckInvariants(0); err == nil || !strings.Contains(err.Error(), "released") {
		t.Errorf("audit with a released member = %v", err)
	}
	k.Released, k.Stream = false, 4
	if err := g.CheckInvariants(0); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("audit with a recycled member on another stream = %v", err)
	}
}
