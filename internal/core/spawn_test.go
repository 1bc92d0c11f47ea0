package spawn

import (
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
)

func prog(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
	return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool { return false })
}

func site(workload, ctas int, overhead kernel.Cycle) *kernel.LaunchSite {
	return &kernel.LaunchSite{
		Candidate: &kernel.LaunchCandidate{
			Workload: workload,
			Def:      &kernel.Def{Name: "c", CTAThreads: 32, NewProgram: prog},
			GridCTAs: ctas,
		},
		EstimatedOverhead: overhead,
	}
}

func TestColdStartAlwaysLaunches(t *testing.T) {
	c := New(config.K20m())
	for i := 0; i < 5; i++ {
		dec := c.Decide(site(1, 1, 25000))
		if dec.Action != kernel.LaunchKernel {
			t.Fatalf("cold-start decision %d = %v, want launch", i, dec.Action)
		}
	}
	if c.QueueDepth() != 5 {
		t.Errorf("queue depth = %d, want 5", c.QueueDepth())
	}
}

// feed simulates `count` child CTAs running for `exec` cycles each, one
// after another, with warps of the same duration, to warm the metrics.
func feed(c *Controller, count int, exec kernel.Cycle) {
	now := kernel.Cycle(0)
	for i := 0; i < count; i++ {
		c.OnChildCTAStart(now)
		c.OnChildWarpFinish(now+exec, now)
		c.OnChildCTAFinish(now+exec, now, 1)
		now += exec
	}
}

func TestDeclinesWhenQueueLong(t *testing.T) {
	c := New(config.K20m())
	// Pack the CCQS via cold-start accepts.
	for i := 0; i < 200; i++ {
		c.Decide(site(1, 1, 25000))
	}
	// Warm metrics: CTAs take 1000 cycles each.
	feed(c, 10, 1000)
	// n is now 200-10=190. t_child = 25000 + 191*1000/ncon.
	// A tiny workload (1 item, t_parent = 1000) must be serialized.
	dec := c.Decide(site(1, 1, 25000))
	if dec.Action != kernel.Serialize {
		t.Errorf("decision = %v, want serialize for tiny work behind a long queue", dec.Action)
	}
}

func TestLaunchesWhenParentWorkHuge(t *testing.T) {
	c := New(config.K20m())
	for i := 0; i < 5; i++ {
		c.Decide(site(1, 1, 25000))
	}
	feed(c, 5, 1000)
	// n = 0 now. t_child = 25000 + 1*1000 = 26000.
	// t_parent = workload * t_warp = 100 * 1000 = 100000 -> launch.
	dec := c.Decide(site(100, 1, 25000))
	if dec.Action != kernel.LaunchKernel {
		t.Errorf("decision = %v, want launch when serialization is far slower", dec.Action)
	}
}

func TestRespectsMaxQueueSize(t *testing.T) {
	cfg := config.K20m()
	cfg.MaxPendingCTAs = 10
	c := New(cfg)
	for i := 0; i < 8; i++ {
		c.Decide(site(1, 1, 25000))
	}
	feed(c, 1, 1000) // warm; n = 7
	dec := c.Decide(site(1000000, 4, 25000))
	if dec.Action != kernel.Serialize {
		t.Errorf("decision = %v, want serialize when n+x exceeds max queue", dec.Action)
	}
}

func TestEquationOneUsesQueueDepth(t *testing.T) {
	// Same candidate, increasingly long queue: decision flips from
	// launch to serialize.
	c := New(config.K20m())
	for i := 0; i < 3; i++ {
		c.Decide(site(1, 1, 25000))
	}
	feed(c, 3, 1000) // n back to 0, tcta = twarp = 1000
	// workload 40: t_parent = 40000. t_child = 25000 + (1+n)*1000.
	// With n small -> launch.
	dec := c.Decide(site(40, 1, 25000))
	if dec.Action != kernel.LaunchKernel {
		t.Fatalf("first decision = %v, want launch", dec.Action)
	}
	// Keep offering: accepts grow n until t_child = 25000 + (1+n)*1000
	// crosses t_parent = 40000, i.e. the queue plateaus at n = 15 and
	// every further candidate is serialized.
	for i := 0; i < 39; i++ {
		c.Decide(site(40, 1, 25000))
	}
	if c.QueueDepth() != 15 {
		t.Fatalf("queue depth = %d, want plateau at 15", c.QueueDepth())
	}
	dec = c.Decide(site(40, 1, 25000))
	if dec.Action != kernel.Serialize {
		t.Errorf("decision at plateau = %v, want serialize", dec.Action)
	}
}

func TestNconDivisorSpeedsService(t *testing.T) {
	// Higher measured concurrency shrinks t_child: with n_con=8, a queue
	// of 40 CTAs drains 8x faster.
	cfg := config.K20m()
	c := New(cfg)
	for i := 0; i < 8; i++ {
		c.Decide(site(1, 1, 25000))
	}
	// 8 CTAs run concurrently for 4096 cycles (4 full windows).
	for i := 0; i < 8; i++ {
		c.OnChildCTAStart(0)
	}
	for i := 0; i < 8; i++ {
		c.OnChildWarpFinish(4096, 0)
		c.OnChildCTAFinish(4096, 0, 1)
	}
	// A later event closes the last busy window; the windowed average
	// (right-shift by 10) reports 8 concurrent CTAs.
	c.OnChildCTAStart(4100)
	c.OnChildCTAFinish(4100, 4100, 1)
	if got := c.nconEstimate(); got < 2 {
		t.Fatalf("ncon = %v, want >= 2 after concurrent window", got)
	}
	// tcta = 4096, twarp = 4096. workload 20 -> t_parent = 81920.
	// With n=0, x=1: t_child = 25000 + 4096/ncon < 81920 -> launch.
	dec := c.Decide(site(20, 1, 25000))
	if dec.Action != kernel.LaunchKernel {
		t.Errorf("decision = %v, want launch with high concurrency", dec.Action)
	}
}

func TestQueueDepthNeverNegative(t *testing.T) {
	c := New(config.K20m())
	c.OnChildCTAFinish(100, 0, 1) // spurious finish
	if c.QueueDepth() != 0 {
		t.Errorf("queue depth = %d, want clamped 0", c.QueueDepth())
	}
}

func TestName(t *testing.T) {
	if New(config.K20m()).Name() != "spawn" {
		t.Error("unexpected name")
	}
}

func TestColdStartDefersBeyondCap(t *testing.T) {
	cfg := config.K20m()
	c := New(cfg)
	cap := int64(cfg.MaxConcurrentCTAs() + cfg.MaxConcurrentCTAs()/4)
	// Fill the cold admission cap.
	accepted := int64(0)
	for accepted < cap {
		dec := c.Decide(site(1, 1, 25000))
		if dec.Action != kernel.LaunchKernel {
			t.Fatalf("cold accept %d rejected: %v", accepted, dec.Action)
		}
		accepted++
	}
	s := site(1, 1, 25000)
	s.Now = 1000
	dec := c.Decide(s)
	if dec.Action != kernel.Defer {
		t.Fatalf("over-cap cold decision = %v, want defer", dec.Action)
	}
	// Still within the defer window: keeps deferring.
	s.Now = 5000
	if dec := c.Decide(s); dec.Action != kernel.Defer {
		t.Errorf("decision at 5000 = %v, want defer", dec.Action)
	}
	// Past the window without any completion: progress fallback accepts.
	s.Now = 1000 + 2*cfg.LaunchOverheadB + 1
	if dec := c.Decide(s); dec.Action != kernel.LaunchKernel {
		t.Errorf("post-window decision = %v, want launch (progress guarantee)", dec.Action)
	}
}

func TestWarmControllerNeverDefers(t *testing.T) {
	c := New(config.K20m())
	c.Decide(site(1, 1, 25000))
	feed(c, 1, 1000) // warm
	for i := 0; i < 500; i++ {
		dec := c.Decide(site(3, 1, 25000))
		if dec.Action == kernel.Defer {
			t.Fatalf("warm controller deferred at decision %d", i)
		}
	}
}
