package smx

import (
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
)

func prog(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
	return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool { return false })
}

func mkCTA(threads, regsPerThread, shmem int) *kernel.CTA {
	d := &kernel.Def{
		Name: "k", GridCTAs: 1, CTAThreads: threads,
		RegsPerThread: regsPerThread, SharedMemBytes: kernel.Bytes(shmem),
		NewProgram: prog,
	}
	return kernel.NewCTA(&kernel.Kernel{Def: d, GridCTAs: 1, Threads: threads}, 0, 32, nil, nil)
}

func TestPlaceReleaseAccounting(t *testing.T) {
	cfg := config.K20m()
	m := New(0, &cfg)
	c := mkCTA(256, 32, 8192)
	if !m.Fits(c) {
		t.Fatal("CTA should fit an empty SMX")
	}
	var age uint64
	m.Place(0, c, &age)
	if m.FreeThreads() != cfg.MaxThreadsPerSM-256 {
		t.Errorf("free threads = %d", m.FreeThreads())
	}
	if m.FreeCTASlots() != cfg.MaxCTAsPerSM-1 {
		t.Errorf("free CTA slots = %d", m.FreeCTASlots())
	}
	if m.ResidentCTAs() != 1 {
		t.Errorf("resident = %d, want 1", m.ResidentCTAs())
	}
	m.Release(1, c)
	if m.FreeThreads() != cfg.MaxThreadsPerSM || m.FreeCTASlots() != cfg.MaxCTAsPerSM {
		t.Error("Release did not restore resources")
	}
}

func TestFitsRespectsEveryLimit(t *testing.T) {
	cfg := config.K20m()

	// Thread limit: 2048 threads / 256 per CTA = 8 CTAs.
	m := New(0, &cfg)
	var age uint64
	for i := 0; i < 8; i++ {
		c := mkCTA(256, 1, 0)
		if !m.Fits(c) {
			t.Fatalf("CTA %d should fit (threads)", i)
		}
		m.Place(0, c, &age)
	}
	if m.Fits(mkCTA(256, 1, 0)) {
		t.Error("9th 256-thread CTA should not fit 2048-thread SMX")
	}

	// CTA-slot limit: 16 tiny CTAs.
	m = New(0, &cfg)
	for i := 0; i < cfg.MaxCTAsPerSM; i++ {
		m.Place(0, mkCTA(32, 1, 0), &age)
	}
	if m.Fits(mkCTA(32, 1, 0)) {
		t.Error("17th CTA should not fit the 16-slot SMX")
	}

	// Register limit: 64 regs * 512 threads = 32768; two fit, a third
	// (32768+32768+... > 65536) does not.
	m = New(0, &cfg)
	m.Place(0, mkCTA(512, 64, 0), &age)
	m.Place(0, mkCTA(512, 64, 0), &age)
	if m.Fits(mkCTA(512, 64, 0)) {
		t.Error("third 32768-register CTA should not fit 65536-register SMX")
	}

	// Shared-memory limit.
	m = New(0, &cfg)
	m.Place(0, mkCTA(32, 1, 32*1024), &age)
	if m.Fits(mkCTA(32, 1, 32*1024)) {
		t.Error("second 32KB-shmem CTA should not fit the 48KB pool")
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	cfg := config.K20m()
	m := New(0, &cfg)
	var age uint64
	c := mkCTA(128, 1, 0) // 4 warps -> scheds get warps (0,2) and (1,3)
	m.Place(0, c, &age)

	w := m.Pick(0, 0)
	if w == nil || w.Index != 0 {
		t.Fatalf("first pick = %+v, want warp 0 (oldest)", w)
	}
	// Greedy: same warp while it stays ready.
	w.ReadyAt = 5
	if got := m.Pick(0, 5); got != w {
		t.Error("greedy warp not re-picked when ready")
	}
	// Warp 0 stalls until cycle 100: oldest ready is warp 2.
	w.ReadyAt = 100
	got := m.Pick(0, 6)
	if got == nil || got.Index != 2 {
		t.Fatalf("pick during stall = %+v, want warp 2", got)
	}
	// Warp 2 becomes the new greedy warp; at cycle 100 warp 0 is ready
	// again but greedy warp 2 (ready) retains the slot.
	got.ReadyAt = 100
	if g := m.Pick(0, 100); g != got {
		t.Error("GTO should stick with current greedy warp when it is ready")
	}
}

func TestGTOSkipsRetiredWarps(t *testing.T) {
	cfg := config.K20m()
	m := New(0, &cfg)
	var age uint64
	c := mkCTA(128, 1, 0)
	m.Place(0, c, &age)
	w0 := m.Pick(0, 0)
	w0.State = kernel.WarpDone
	got := m.Pick(0, 0)
	if got == nil || got == w0 {
		t.Fatalf("pick after retire = %+v, want a different warp", got)
	}
}

func TestNextReady(t *testing.T) {
	cfg := config.K20m()
	m := New(0, &cfg)
	// NextReady is a conservative cache refreshed by Pick.
	m.Pick(0, 0)
	m.Pick(1, 0)
	if m.NextReady() != NoEvent {
		t.Error("empty SMX should report NoEvent after a refresh")
	}
	var age uint64
	c := mkCTA(64, 1, 0) // 2 warps, one per scheduler
	m.Place(0, c, &age)
	c.Warps[0].ReadyAt = 50
	c.Warps[1].ReadyAt = 30
	m.Pick(0, 0)
	m.Pick(1, 0)
	if got := m.NextReady(); got != 30 {
		t.Errorf("NextReady = %d, want 30", got)
	}
	// Parking warp 1 is discovered when the scheduler scans at its
	// cached ready time; the cache then rises past it.
	c.Warps[1].State = kernel.WarpAtSync
	m.Pick(1, 30)
	if got := m.NextReady(); got != 50 {
		t.Errorf("NextReady = %d, want 50 after park", got)
	}
}

func TestUtilizationIsMaxOfResources(t *testing.T) {
	cfg := config.K20m()
	m := New(0, &cfg)
	if m.Utilization() != 0 {
		t.Error("empty SMX utilization should be 0")
	}
	var age uint64
	// 512 threads (25%), 32 regs/thread -> 16384 regs (25%), 24KB shmem (50%).
	m.Place(0, mkCTA(512, 32, 24*1024), &age)
	if got := m.Utilization(); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5 (shared memory bound)", got)
	}
}

func TestWarpsAlternateBetweenSchedulers(t *testing.T) {
	cfg := config.K20m()
	m := New(0, &cfg)
	var age uint64
	c := mkCTA(128, 1, 0)
	m.Place(0, c, &age)
	s0 := m.Pick(0, 0)
	s1 := m.Pick(1, 0)
	if s0.Index%2 != 0 || s1.Index%2 != 1 {
		t.Errorf("scheduler assignment: s0 got warp %d, s1 got warp %d", s0.Index, s1.Index)
	}
}

func TestPlacePanicsWhenFull(t *testing.T) {
	cfg := config.K20m()
	m := New(0, &cfg)
	var age uint64
	for i := 0; i < cfg.MaxCTAsPerSM; i++ {
		m.Place(0, mkCTA(32, 1, 0), &age)
	}
	defer func() {
		if recover() == nil {
			t.Error("Place beyond capacity should panic")
		}
	}()
	m.Place(0, mkCTA(32, 1, 0), &age)
}

// TestReleaseDropsWarpsFromSchedulers checks that Release leaves no warp
// of the CTA in a scheduler list or the greedy slot, so a recycled warp
// cannot sit in two lists, and that the audit rejects a released or
// misfiled scheduled warp.
func TestReleaseDropsWarpsFromSchedulers(t *testing.T) {
	cfg := config.K20m()
	m := New(0, &cfg)
	var age uint64
	a, b := mkCTA(128, 16, 0), mkCTA(128, 16, 0)
	m.Place(0, a, &age)
	m.Place(0, b, &age)
	if w := m.Pick(0, 0); w == nil || w.CTA != a {
		t.Fatalf("first pick = %v, want a warp of the first CTA", w)
	}
	for _, w := range a.Warps {
		w.State = kernel.WarpDone
	}
	m.Release(1, a)
	for si := range m.scheds {
		sc := &m.scheds[si]
		if sc.greedy != nil && sc.greedy.CTA == a {
			t.Errorf("scheduler %d: released CTA's warp still greedy", si)
		}
		for _, w := range sc.warps {
			if w.CTA == a {
				t.Errorf("scheduler %d still lists warp %d of the released CTA", si, w.Index)
			}
		}
	}
	if err := m.CheckInvariants(1); err != nil {
		t.Fatalf("audit after release: %v", err)
	}
	b.Warps[1].Released = true
	if err := m.CheckInvariants(1); err == nil || !strings.Contains(err.Error(), "released warp") {
		t.Errorf("audit with a released scheduled warp = %v", err)
	}
	b.Warps[1].Released = false
	m.scheds[0].warps = append(m.scheds[0].warps, b.Warps[1])
	if err := m.CheckInvariants(1); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("audit with a warp in the wrong scheduler = %v", err)
	}
}

// TestAuditCatchesReleasedParkedWarp releases a warp parked at its
// sync while its CTA still runs here. The warp has left the scheduler
// list, so the resident-CTA walk must report it, released and then
// reused by another CTA.
func TestAuditCatchesReleasedParkedWarp(t *testing.T) {
	cfg := config.K20m()
	m := New(0, &cfg)
	var age uint64
	c := mkCTA(64, 16, 0)
	m.Place(0, c, &age)
	w := c.Warps[0]
	w.State = kernel.WarpAtSync
	m.scheds[0].prune()
	if err := m.CheckInvariants(1); err != nil {
		t.Fatalf("audit with a parked warp: %v", err)
	}
	w.MarkReleased()
	if err := m.CheckInvariants(1); err == nil || !strings.Contains(err.Error(), "released warp") {
		t.Errorf("audit with a released parked warp = %v", err)
	}
	w.Released, w.CTA = false, mkCTA(64, 16, 0)
	if err := m.CheckInvariants(1); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("audit with a parked warp reused by another CTA = %v", err)
	}
}
