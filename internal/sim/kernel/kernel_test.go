package kernel

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func trivialProgram(arg, cta, warp, lanes int, old Program) Program {
	done := false
	return ProgramFunc(func(x *Exec, in *Instr) bool {
		if done {
			return false
		}
		done = true
		in.Kind = InstrALU
		in.Lat = 1
		return true
	})
}

func testDef(grid, ctaThreads, threads int) *Def {
	return &Def{
		Name:       "t",
		GridCTAs:   grid,
		CTAThreads: ctaThreads,
		Threads:    threads,
		NewProgram: trivialProgram,
	}
}

// testKernel launches d with its host launch configuration.
func testKernel(d *Def) *Kernel {
	return &Kernel{Def: d, GridCTAs: d.GridCTAs, Threads: d.TotalThreads()}
}

func TestDefValidate(t *testing.T) {
	if err := testDef(2, 64, 0).ValidateLaunch(2, 0); err != nil {
		t.Errorf("valid def rejected: %v", err)
	}
	// A device-launched Def carries no grid of its own.
	if err := testDef(0, 64, 0).Validate(); err != nil {
		t.Errorf("valid gridless def rejected: %v", err)
	}
	// One CTA past the 32-bit counters' range; on a 32-bit int it wraps
	// negative, which is rejected too.
	huge := math.MaxInt32
	huge++
	bad := []*Def{
		{},
		{Name: "x", GridCTAs: 0, CTAThreads: 32, NewProgram: trivialProgram},
		{Name: "x", GridCTAs: 1, CTAThreads: 0, NewProgram: trivialProgram},
		{Name: "x", GridCTAs: 1, CTAThreads: 32, Threads: 40, NewProgram: trivialProgram},
		{Name: "x", GridCTAs: 1, CTAThreads: 32},
		{Name: "x", GridCTAs: huge, CTAThreads: 32, NewProgram: trivialProgram},
	}
	for i, d := range bad {
		if err := d.ValidateLaunch(d.GridCTAs, d.Threads); err == nil {
			t.Errorf("bad def %d accepted", i)
		}
	}
}

func TestDefDerived(t *testing.T) {
	d := testDef(3, 128, 300)
	if got := d.TotalThreads(); got != 300 {
		t.Errorf("TotalThreads = %d, want 300", got)
	}
	d.Threads = 0
	if got := d.TotalThreads(); got != 384 {
		t.Errorf("TotalThreads = %d, want 384", got)
	}
	if got := d.WarpsPerCTA(32); got != 4 {
		t.Errorf("WarpsPerCTA = %d, want 4", got)
	}
}

func TestGridFor(t *testing.T) {
	tests := []struct{ threads, cta, want int }{
		{0, 32, 1}, {1, 32, 1}, {32, 32, 1}, {33, 32, 2}, {100, 64, 2}, {128, 64, 2},
	}
	for _, tc := range tests {
		if got := GridFor(tc.threads, tc.cta); got != tc.want {
			t.Errorf("GridFor(%d,%d) = %d, want %d", tc.threads, tc.cta, got, tc.want)
		}
	}
}

func TestNewCTAPartialWarps(t *testing.T) {
	// 70 live threads in a 128-thread CTA: warps of 32, 32, 6; the 4th
	// warp has zero live lanes and must not be created.
	d := testDef(1, 128, 70)
	c := NewCTA(testKernel(d), 0, 32, nil, nil)
	if got := len(c.Warps); got != 3 {
		t.Fatalf("warps = %d, want 3", got)
	}
	wantLanes := []int{32, 32, 6}
	for i, w := range c.Warps {
		if w.Lanes != wantLanes[i] {
			t.Errorf("warp %d lanes = %d, want %d", i, w.Lanes, wantLanes[i])
		}
	}
	if c.RunningWarps() != 3 {
		t.Errorf("RunningWarps = %d, want 3", c.RunningWarps())
	}
}

func TestNewCTASecondCTAOfPartialGrid(t *testing.T) {
	// 40 threads, CTAs of 32: CTA 1 has 8 live threads.
	d := testDef(2, 32, 40)
	c := NewCTA(testKernel(d), 1, 32, nil, nil)
	if got := len(c.Warps); got != 1 {
		t.Fatalf("warps = %d, want 1", got)
	}
	if c.Warps[0].Lanes != 8 {
		t.Errorf("lanes = %d, want 8", c.Warps[0].Lanes)
	}
}

func TestCTAResourceReservation(t *testing.T) {
	d := testDef(1, 128, 0)
	d.RegsPerThread = 24
	d.SharedMemBytes = 4096
	c := NewCTA(testKernel(d), 0, 32, nil, nil)
	if c.Regs != 24*128 {
		t.Errorf("Regs = %d, want %d", c.Regs, 24*128)
	}
	if c.SharedMem != 4096 {
		t.Errorf("SharedMem = %d, want 4096", c.SharedMem)
	}
	if c.Threads != 128 {
		t.Errorf("Threads = %d, want 128", c.Threads)
	}
}

func TestWarpRetired(t *testing.T) {
	d := testDef(1, 64, 0)
	c := NewCTA(testKernel(d), 0, 32, nil, nil)
	if c.WarpRetired(1) {
		t.Error("first retirement should not complete a 2-warp CTA")
	}
	if !c.WarpRetired(1) {
		t.Error("second retirement should complete the CTA")
	}
	defer func() {
		if recover() == nil {
			t.Error("over-retirement should panic")
		}
	}()
	c.WarpRetired(1)
}

func TestKernelLifecyclePredicates(t *testing.T) {
	d := testDef(2, 32, 0)
	k := testKernel(d)
	if k.IsChild() {
		t.Error("host kernel reported as child")
	}
	if k.Dispatched() || k.Done() {
		t.Error("fresh kernel reported dispatched/done")
	}
	k.NextCTA = 2
	if !k.Dispatched() {
		t.Error("kernel with all CTAs dispatched not reported so")
	}
	k.CTAsDone = 2
	if !k.Done() {
		t.Error("kernel with all CTAs done not reported so")
	}
	k.Parent = NewCTA(k, 0, 32, nil, nil)
	if !k.IsChild() {
		t.Error("kernel with parent CTA not reported as child")
	}
}

func TestInstrReset(t *testing.T) {
	in := Instr{
		Kind:       InstrMem,
		Lat:        9,
		Store:      true,
		Addrs:      []uint64{1, 2, 3},
		Candidates: []LaunchCandidate{{Lane: 1}},
	}
	in.Reset()
	if in.Kind != InstrALU || in.Lat != 0 || in.Store || len(in.Addrs) != 0 || len(in.Candidates) != 0 {
		t.Errorf("Reset left state: %+v", in)
	}
	if cap(in.Addrs) == 0 {
		t.Error("Reset dropped Addrs capacity")
	}
}

func TestStringers(t *testing.T) {
	for _, k := range []InstrKind{InstrALU, InstrMem, InstrLaunch, InstrSync, InstrKind(99)} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
	for _, a := range []Action{Serialize, LaunchKernel, LaunchCTAs, Action(99)} {
		if a.String() == "" {
			t.Errorf("empty string for action %d", a)
		}
	}
	for _, m := range []StreamMode{StreamPerChild, StreamPerParentCTA, StreamMode(99)} {
		if m.String() == "" {
			t.Errorf("empty string for mode %d", m)
		}
	}
}

// Property: live lanes across all CTAs of any grid equal TotalThreads.
func TestNewCTALaneConservation(t *testing.T) {
	f := func(gridRaw, ctaRaw uint8, threadFrac uint8) bool {
		grid := int(gridRaw%16) + 1
		ctaThreads := (int(ctaRaw%8) + 1) * 16
		threads := (grid * ctaThreads) * int(threadFrac) / 255
		if threads == 0 {
			threads = 1
		}
		d := testDef(grid, ctaThreads, threads)
		k := testKernel(d)
		total := 0
		for i := 0; i < grid; i++ {
			c := NewCTA(k, i, 32, nil, nil)
			for _, w := range c.Warps {
				if w.Lanes <= 0 || w.Lanes > 32 {
					return false
				}
				total += w.Lanes
			}
		}
		return total == threads
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFullySuspended(t *testing.T) {
	k := testKernel(testDef(3, 32, 0))
	if k.FullySuspended() {
		t.Error("fresh kernel reported suspended")
	}
	k.NextCTA = 3 // fully dispatched
	k.SuspendedCTAs = 2
	if k.FullySuspended() {
		t.Error("2 of 3 suspended should not be fully suspended")
	}
	k.CTAsDone = 1
	if !k.FullySuspended() {
		t.Error("2 suspended + 1 done of 3 should be fully suspended")
	}
	k.CTAsDone, k.SuspendedCTAs = 0, 3
	if !k.FullySuspended() {
		t.Error("all suspended should be fully suspended")
	}
	k.NextCTA = 2
	if k.FullySuspended() {
		t.Error("undispatched CTAs must block suspension")
	}
}

// idleProgram is a comparable Program that issues nothing.
type idleProgram struct{ _ int }

func (*idleProgram) Next(*Exec, *Instr) bool { return false }

// TestNewCTAReusesReleasedCTA reinitialises a released shell with
// released warps: the same objects come back live with a new Gen and
// empty launch buffers that keep their capacity, NewProgram gets each
// warp's old program back, and a warp list short of warps allocates the
// rest with no old program.
func TestNewCTAReusesReleasedCTA(t *testing.T) {
	var olds []Program
	d := testDef(2, 64, 0)
	d.NewProgram = func(arg, cta, warp, lanes int, old Program) Program {
		olds = append(olds, old)
		return &idleProgram{}
	}
	k := testKernel(d)
	c := NewCTA(k, 0, 32, nil, nil)
	w0, w1 := c.Warps[0], c.Warps[1]
	w0.LaunchBuf = append(w0.LaunchBuf, LaunchCandidate{Lane: 3})
	w0.Exec.Accepted = append(w0.Exec.Accepted, true)
	prog := w0.Prog
	// The simulator's release order: the warps to their Def's list,
	// then the shell.
	var spare []*Warp
	for _, w := range c.Warps {
		w.MarkReleased()
		spare = append(spare, w)
	}
	c.Warps = c.Warps[:0]
	c.MarkReleased()
	if !c.Released || !w0.Released || c.Gen != 1 || w0.Gen != 1 {
		t.Fatalf("MarkReleased: CTA released %t gen %d, warp released %t gen %d", c.Released, c.Gen, w0.Released, w0.Gen)
	}
	olds = olds[:0]
	// NewCTA takes warps from the end of the list: w1 becomes warp 0.
	if got := NewCTA(k, 1, 32, c, &spare); got != c || c.Warps[0] != w1 || c.Warps[1] != w0 || len(spare) != 0 {
		t.Fatal("reuse did not return the released shell and warps")
	}
	switch {
	case c.Released || w0.Released || c.Gen != 1 || w0.Gen != 1:
		t.Errorf("reused CTA released %t gen %d, warp released %t gen %d", c.Released, c.Gen, w0.Released, w0.Gen)
	case c.Index != 1 || c.State != CTAQueued || c.RunningWarps() != 2 || w0.CTA != c || w0.Index != 1:
		t.Errorf("reused CTA index %d state %d running %d; warp index %d", c.Index, c.State, c.RunningWarps(), w0.Index)
	case len(w0.LaunchBuf) != 0 || cap(w0.LaunchBuf) == 0 || len(w0.Exec.Accepted) != 0 || cap(w0.Exec.Accepted) == 0:
		t.Errorf("launch buffers %d/%d, accepted %d/%d: want empty with capacity",
			len(w0.LaunchBuf), cap(w0.LaunchBuf), len(w0.Exec.Accepted), cap(w0.Exec.Accepted))
	case len(olds) != 2 || olds[1] != prog:
		t.Errorf("NewProgram got %v, want the released programs of the same Def", olds)
	}
	w1.MarkReleased()
	spare = append(spare[:0], w1)
	olds = olds[:0]
	if c2 := NewCTA(k, 0, 32, nil, &spare); c2.Warps[0] != w1 || c2.Warps[1] == w0 {
		t.Error("a short warp list must give up its warp and allocate the rest")
	}
	if len(olds) != 2 || olds[0] == nil || olds[1] != nil {
		t.Errorf("NewProgram from a one-warp list got %v, want one old program then none", olds)
	}
}

// TestKernelSize holds the device Kernel, tens of thousands of which
// are live at once in a nested run, to 112 bytes.
func TestKernelSize(t *testing.T) {
	if got := unsafe.Sizeof(Kernel{}); got > 112 {
		t.Errorf("Kernel is %d bytes, want at most 112", got)
	}
}

// TestCheckParentsAuditsShells audits a suspended parent's warps
// through its child's Parent chain: a shell may keep only live warps of
// its own with a launch still in flight.
func TestCheckParentsAuditsShells(t *testing.T) {
	d := testDef(1, 64, 0)
	p := NewCTA(testKernel(d), 0, 32, nil, nil)
	child := &Kernel{Def: d, GridCTAs: 1, Threads: 32, Parent: p}
	if err := child.CheckParents(7); err != nil {
		t.Fatalf("running parent: %v", err)
	}
	p.State = CTAWaitingSync
	for _, w := range p.Warps {
		w.PendingLaunches = 1
	}
	if err := child.CheckParents(7); err != nil {
		t.Fatalf("shell whose warps all have a launch in flight: %v", err)
	}
	other := NewCTA(testKernel(d), 1, 32, nil, nil)
	for _, tc := range []struct {
		name  string
		plant func(w *Warp)
	}{
		{"landed", func(w *Warp) { w.PendingLaunches = 0 }},
		{"released", func(w *Warp) { w.MarkReleased() }},
		{"reused", func(w *Warp) { w.CTA = other }},
	} {
		w := p.Warps[1]
		saved := *w
		tc.plant(w)
		err := child.CheckParents(7)
		var inv *InvariantError
		if !errors.As(err, &inv) || !strings.Contains(err.Error(), "suspended CTA") {
			t.Errorf("%s warp on a shell: audit = %v, want a suspended-CTA InvariantError", tc.name, err)
		}
		*w = saved
	}
}
