package gmu

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
)

// scanDispatchable is HasDispatchable as a scan over every queue head,
// the reference the ready-head counter must agree with.
func scanDispatchable(g *GMU) bool {
	for qi := 0; qi < g.numQueues(); qi++ {
		if g.headOf(qi) != nil {
			return true
		}
	}
	return false
}

// TestInvariantsCatchStaleReadyCount corrupts the ready-head counter
// both ways on a GMU whose audit passes: the audit must report each.
func TestInvariantsCatchStaleReadyCount(t *testing.T) {
	for _, delta := range []int{+1, -1} {
		g := New(config.K20m())
		g.Enqueue(mkKernel(1, 2, 3))
		mustAudit(t, g, 0)
		g.readyHWQs += delta
		err := g.CheckInvariants(0)
		var inv *kernel.InvariantError
		if !errors.As(err, &inv) || !strings.Contains(inv.Error(), "ready-head counter") {
			t.Errorf("audit with the counter off by %+d = %v, want a ready-head InvariantError", delta, err)
		}
	}
}

// TestHasDispatchableMatchesScan drives a GMU through seeded random
// enqueue, dispatch, yield and complete steps, as the engine orders
// them, and checks after every step that HasDispatchable equals the
// scan and that the audit passes.
func TestHasDispatchableMatchesScan(t *testing.T) {
	cfg := config.K20m()
	cfg.NumHWQs = 4 // few queues, so heads change often
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(cfg)
		var live []*kernel.Kernel // enqueued, not completed
		id := 0
		for step := 0; step < 2000; step++ {
			now := kernel.Cycle(step)
			switch r := rng.Intn(10); {
			case r < 3:
				id++
				k := mkKernel(id, 1+rng.Intn(4), kernel.StreamID(rng.Intn(6)))
				k.Aggregated = rng.Intn(4) == 0
				g.Enqueue(k)
				live = append(live, k)
			case r < 6:
				// Placement fails now and then, as on a full machine.
				g.Dispatch(now, func(k *kernel.Kernel) bool {
					if rng.Intn(4) == 0 {
						return false
					}
					k.NextCTA++
					return true
				})
			case r < 8:
				// Yield a fully dispatched HWQ head, as a fully
				// suspended kernel does.
				for qi := range g.hwqs {
					if k := g.hwqs[qi].Front(); k != nil && k.Dispatched() && rng.Intn(2) == 0 {
						g.Yield(now, k)
						break
					}
				}
			default:
				// Complete a fully dispatched kernel that may complete:
				// a yielded one, a dispatched group, or an HWQ head.
				for i, k := range live {
					qi := int(uint32(k.Stream) % uint32(cfg.NumHWQs))
					if !k.Dispatched() || (!k.Yielded && !k.Aggregated && g.hwqs[qi].Front() != k) {
						continue
					}
					k.CTAsDone = int32(k.GridCTAs)
					g.KernelCompleted(now, k)
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			if got, want := g.HasDispatchable(), scanDispatchable(g); got != want {
				t.Fatalf("seed %d step %d: HasDispatchable = %t, scan %t", seed, step, got, want)
			}
			mustAudit(t, g, now)
		}
	}
}
