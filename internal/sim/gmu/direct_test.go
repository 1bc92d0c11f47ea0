package gmu

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
)

func mkGroup(id, ctas int) *kernel.Kernel {
	k := mkKernel(id, ctas, 0)
	k.Aggregated = true
	return k
}

func mustAudit(t *testing.T, g *GMU, now kernel.Cycle) {
	t.Helper()
	if err := g.CheckInvariants(now); err != nil {
		t.Fatalf("cycle %d: %v", now, err)
	}
}

func TestDirectQueueSkipsRunningGroups(t *testing.T) {
	g := New(config.K20m())
	a, b := mkGroup(1, 1), mkGroup(2, 1)
	g.Enqueue(a)
	g.Enqueue(b)
	g.Dispatch(0, acceptAll)
	if !a.Dispatched() || !b.Dispatched() {
		t.Fatal("both groups should dispatch in one tick")
	}
	mustAudit(t, g, 0)
	// a and b are still running; c queues behind them and must not wait.
	c := mkGroup(3, 1)
	g.Enqueue(c)
	if !g.HasDispatchable() {
		t.Fatal("a group behind fully dispatched groups should be dispatchable")
	}
	if placed := g.Dispatch(1, acceptAll); placed != 1 || !c.Dispatched() {
		t.Fatalf("placed = %d, c.NextCTA = %d; want c dispatched", placed, c.NextCTA)
	}
	mustAudit(t, g, 1)
	if g.QueuedKernels() != 3 {
		t.Errorf("QueuedKernels = %d, want 3 resident groups", g.QueuedKernels())
	}
}

func TestDirectQueuePartialHeadKeepsHeadship(t *testing.T) {
	g := New(config.K20m())
	a, b := mkGroup(1, 3), mkGroup(2, 2)
	g.Enqueue(a)
	g.Enqueue(b)
	// Rate 2: both placements go to a, the head, not one to each.
	g.Dispatch(0, acceptAll)
	if a.NextCTA != 2 || b.NextCTA != 0 {
		t.Fatalf("after tick 0: a=%d b=%d CTAs placed, want 2, 0", a.NextCTA, b.NextCTA)
	}
	if n := g.QueueLatency.N(); n != 1 {
		t.Fatalf("after tick 0: %d queue latencies, want a's only", n)
	}
	mustAudit(t, g, 0)
	// A failed placement leaves a at the head.
	if placed := g.Dispatch(1, rejectAll); placed != 0 {
		t.Fatalf("placed = %d on a rejecting tick", placed)
	}
	// a's last CTA goes first, then b leads.
	g.Dispatch(2, acceptAll)
	if a.NextCTA != 3 || b.NextCTA != 1 {
		t.Fatalf("after tick 2: a=%d b=%d CTAs placed, want 3, 1", a.NextCTA, b.NextCTA)
	}
	mustAudit(t, g, 2)
	// Both arrived at 0: a first dispatched at 0 and b at 2.
	if n, mean := g.QueueLatency.N(), g.QueueLatency.Value(); n != 2 || mean != 1 {
		t.Errorf("queue latency: %d kernels, mean %v; want 2 with mean 1 (b first dispatched at 2)", n, mean)
	}
	g.Dispatch(3, acceptAll)
	if !b.Dispatched() || g.HasDispatchable() {
		t.Errorf("b.NextCTA = %d, HasDispatchable = %v; want b done and nothing left", b.NextCTA, g.HasDispatchable())
	}
	if n := g.QueueLatency.N(); n != 2 {
		t.Errorf("after b's last CTA: %d queue latencies, want 2 (one per kernel, at its first dispatch)", n)
	}
	mustAudit(t, g, 3)
}

func TestCheckInvariantsFlagsNonHeadDirectDispatch(t *testing.T) {
	g := New(config.K20m())
	a, b := mkGroup(1, 2), mkGroup(2, 2)
	g.Enqueue(a)
	g.Enqueue(b)
	b.NextCTA = 1 // placed behind an undispatched head
	err := g.CheckInvariants(5)
	var ie *kernel.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("CheckInvariants = %v, want an InvariantError", err)
	}
	if !strings.Contains(err.Error(), "non-head") {
		t.Errorf("error %q does not name the non-head group", err)
	}
}

func TestKernelCompletedPanicsOnNonResidentGroup(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(g *GMU) *kernel.Kernel
	}{
		{"undispatched", func(g *GMU) *kernel.Kernel {
			k := mkGroup(1, 2)
			g.Enqueue(k)
			g.Dispatch(0, func(k *kernel.Kernel) bool { // one of two CTAs
				if k.NextCTA > 0 {
					return false
				}
				k.NextCTA++
				return true
			})
			return k
		}},
		{"never enqueued", func(g *GMU) *kernel.Kernel {
			g.Enqueue(mkGroup(1, 1))
			g.Dispatch(0, acceptAll)
			return mkGroup(2, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New(config.K20m())
			k := tc.setup(g)
			defer func() {
				if _, ok := recover().(*kernel.InvariantError); !ok {
					t.Error("completing a non-resident group should panic with an InvariantError")
				}
			}()
			g.KernelCompleted(1, k)
		})
	}
}

// BenchmarkDispatchDirect times one DTBL group's way through the direct
// queue (enqueue, dispatch of its one CTA, completion) while the given
// number of earlier groups stay resident, dispatched and still running.
// ns/op must not grow with the resident count.
func BenchmarkDispatchDirect(b *testing.B) {
	for _, resident := range []int{200, 2000, 20000} {
		b.Run("resident="+strconv.Itoa(resident), func(b *testing.B) {
			g := New(config.K20m())
			ring := make([]*kernel.Kernel, resident)
			for i := range ring {
				ring[i] = mkGroup(i, 1)
				g.Enqueue(ring[i])
				g.Dispatch(kernel.Cycle(i), acceptAll)
			}
			fresh := make([]*kernel.Kernel, b.N)
			for i := range fresh {
				fresh[i] = mkGroup(resident+i, 1)
			}
			b.ResetTimer()
			for i, k := range fresh {
				now := kernel.Cycle(resident + i)
				g.Enqueue(k)
				if g.Dispatch(now, acceptAll) != 1 {
					b.Fatal("group not dispatched")
				}
				slot := i % resident
				g.KernelCompleted(now, ring[slot])
				ring[slot] = k
			}
		})
	}
}
