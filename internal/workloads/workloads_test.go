package workloads

import (
	"testing"

	"spawnsim/internal/inputs"
	"spawnsim/internal/sim/kernel"
)

// mustParentDef builds the app's parent kernel def, failing the test on
// a construction error.
func mustParentDef(t *testing.T, app *App) *kernel.Def {
	t.Helper()
	def, err := ParentDef(app)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// hostLaunch is def's host launch configuration as a launch.
func hostLaunch(def *kernel.Def) kernel.LaunchCandidate {
	return kernel.LaunchCandidate{Def: def, GridCTAs: def.GridCTAs, Threads: def.Threads}
}

// warpProgram builds the program of warp `warp` in CTA `cta` of launch
// c, as kernel.NewCTA does for 32-lane warps; old is a released program
// to reinitialise, or nil.
func warpProgram(c kernel.LaunchCandidate, cta, warp int, old kernel.Program) kernel.Program {
	d := c.Def
	lanes := d.WarpLanes(d.LiveThreads(c.GridCTAs, c.Threads), cta, warp, 32)
	return d.NewProgram(c.Arg, cta, warp, lanes, old)
}

// drain pulls a program to completion, returning the instruction kinds.
func drain(t *testing.T, p kernel.Program, accept func(c *kernel.LaunchCandidate) bool) []kernel.Instr {
	t.Helper()
	var out []kernel.Instr
	x := &kernel.Exec{}
	for i := 0; i < 1_000_000; i++ {
		var in kernel.Instr
		if !p.Next(x, &in) {
			return out
		}
		if in.Kind == kernel.InstrLaunch {
			x.Accepted = x.Accepted[:0]
			for i := range in.Candidates {
				x.Accepted = append(x.Accepted, accept != nil && accept(&in.Candidates[i]))
			}
		}
		// Copy slices (the engine owns the buffer).
		cp := in
		cp.Addrs = append([]uint64(nil), in.Addrs...)
		cp.Candidates = append([]kernel.LaunchCandidate(nil), in.Candidates...)
		out = append(out, cp)
	}
	t.Fatal("program did not terminate")
	return nil
}

func countKinds(ins []kernel.Instr) map[kernel.InstrKind]int {
	m := map[kernel.InstrKind]int{}
	for _, in := range ins {
		m[in.Kind]++
	}
	return m
}

func tinyApp(items []int) *App {
	base := uint64(1 << 20)
	return &App{
		Name:     "tiny",
		Elements: len(items),
		Items:    func(p int) int { return items[p] },
		Ops: ItemOps{
			ALULat: 4,
			Loads:  1,
			Stores: 1,
			Addr: func(p, j, it, slot int) uint64 {
				return base + uint64(p*4096+j*8+slot*4)
			},
		},
	}
}

func TestParentProgramFlatSerializesEverything(t *testing.T) {
	app := tinyApp([]int{5, 0, 3, 7})
	def := mustParentDef(t, app)
	if def.GridCTAs != 1 {
		t.Fatalf("grid = %d", def.GridCTAs)
	}
	prog := warpProgram(hostLaunch(def), 0, 0, nil)
	ins := drain(t, prog, nil) // decline all
	k := countKinds(ins)
	// Serial loop runs to the deepest lane: 7 items, each 1 ALU + 1 load
	// + 1 store (lockstep); loads/stores only cover active lanes.
	if k[kernel.InstrALU] != 7 {
		t.Errorf("ALU count = %d, want 7 (lockstep to deepest lane)", k[kernel.InstrALU])
	}
	if k[kernel.InstrSync] != 1 || k[kernel.InstrLaunch] != 1 {
		t.Errorf("launch/sync = %d/%d, want 1/1", k[kernel.InstrLaunch], k[kernel.InstrSync])
	}
	// Item 6 (j=6) is only active for the 7-item lane: its mem ops have 1 addr.
	last := ins[len(ins)-2] // store of item 6 before sync
	if last.Kind != kernel.InstrMem || len(last.Addrs) != 1 {
		t.Errorf("deepest item's store = %+v, want 1 lane", last)
	}
}

func TestParentProgramLaunchCandidates(t *testing.T) {
	app := tinyApp([]int{5, 0, 3, 7})
	prog := warpProgram(hostLaunch(mustParentDef(t, app)), 0, 0, nil)
	var candidates []kernel.LaunchCandidate
	ins := drain(t, prog, func(c *kernel.LaunchCandidate) bool {
		candidates = append(candidates, *c)
		return true // accept all
	})
	if len(candidates) != 3 {
		t.Fatalf("candidates = %d, want 3 (lane with 0 items is skipped)", len(candidates))
	}
	wantWork := []int{5, 3, 7}
	for i, c := range candidates {
		if c.Workload != wantWork[i] {
			t.Errorf("candidate %d workload = %d, want %d", i, c.Workload, wantWork[i])
		}
		if c.Threads != wantWork[i] {
			t.Errorf("candidate %d child threads = %d, want %d", i, c.Threads, wantWork[i])
		}
	}
	// All accepted: no serial ALU work remains.
	if k := countKinds(ins); k[kernel.InstrALU] != 0 {
		t.Errorf("ALU count = %d, want 0 when everything offloads", k[kernel.InstrALU])
	}
}

func TestChildProgramCoversItems(t *testing.T) {
	app := tinyApp([]int{40})
	mustParentDef(t, app)
	c := app.childLaunch(0, 0, app.Items(0))
	if c.GridCTAs != 2 || c.Threads != 40 {
		t.Fatalf("child launch = %d CTAs, %d threads; want 2, 40", c.GridCTAs, c.Threads)
	}
	// CTA 1 warp 0 covers items 32..39 (8 lanes).
	ins := drain(t, warpProgram(c, 1, 0, nil), nil)
	k := countKinds(ins)
	if k[kernel.InstrALU] != 1 {
		t.Errorf("child ALU = %d, want 1 (each lane does one item)", k[kernel.InstrALU])
	}
	var memAddrs int
	for _, in := range ins {
		if in.Kind == kernel.InstrMem && !in.Store {
			memAddrs = len(in.Addrs)
		}
	}
	if memAddrs != 8 {
		t.Errorf("child load lanes = %d, want 8", memAddrs)
	}
}

func TestInnerIterations(t *testing.T) {
	app := tinyApp([]int{2})
	app.Ops.Inner = func(p, j int) int { return 3 }
	prog := warpProgram(hostLaunch(mustParentDef(t, app)), 0, 0, nil)
	ins := drain(t, prog, nil)
	k := countKinds(ins)
	// 2 items x 3 inner iterations = 6 ALU.
	if k[kernel.InstrALU] != 6 {
		t.Errorf("ALU = %d, want 6", k[kernel.InstrALU])
	}
}

func TestFinalStores(t *testing.T) {
	app := tinyApp([]int{1, 1})
	app.Ops.Stores = 0
	app.Ops.FinalStores = 1
	app.Ops.FinalAddr = func(p, j, slot int) uint64 { return 1 << 22 }
	ins := drain(t, warpProgram(hostLaunch(mustParentDef(t, app)), 0, 0, nil), nil)
	stores := 0
	for _, in := range ins {
		if in.Kind == kernel.InstrMem && in.Store {
			stores++
		}
	}
	if stores != 1 {
		t.Errorf("final store instructions = %d, want 1 (one per item, both lanes batched)", stores)
	}
}

func TestOffloadFractionMath(t *testing.T) {
	app := tinyApp([]int{10, 20, 30, 40})
	app.Normalize()
	if got := app.TotalWork(); got != 100 {
		t.Fatalf("TotalWork = %d, want 100", got)
	}
	if got := app.OffloadFractionAt(0); got != 1.0 {
		t.Errorf("OffloadFractionAt(0) = %v, want 1", got)
	}
	if got := app.OffloadFractionAt(25); got != 0.7 {
		t.Errorf("OffloadFractionAt(25) = %v, want 0.7", got)
	}
	if got := app.OffloadFractionAt(100); got != 0 {
		t.Errorf("OffloadFractionAt(100) = %v, want 0", got)
	}
	// ThresholdForOffload finds the crossing point.
	tr := app.ThresholdForOffload(0.7)
	if f := app.OffloadFractionAt(tr); f > 0.7 {
		t.Errorf("offload at threshold %d = %v, want <= 0.7", tr, f)
	}
}

func TestAppValidation(t *testing.T) {
	bad := []*App{
		{},
		{Name: "x"},
		{Name: "x", Elements: 4},
		{Name: "x", Elements: 4, Items: func(int) int { return 1 }, Ops: ItemOps{Loads: 1}},
		{Name: "x", Elements: 4, Items: func(int) int { return 1 }, Ops: ItemOps{FinalStores: 1}},
		{Name: "x", Elements: 4, Items: func(int) int { return 1 }, SetupLoads: 1},
	}
	for i, a := range bad {
		if err := a.Normalize(); err == nil {
			t.Errorf("bad app %d accepted", i)
		}
	}
}

func TestAMRNestedPrograms(t *testing.T) {
	app := NewAMR(inputs.NewAMRMesh(256, 1))
	mustParentDef(t, app)
	// Find a parent with items whose sub-cells nest.
	p := -1
	for i := 0; i < app.Elements; i++ {
		if app.Items(i) >= 8 && app.Nest.SubItems(i, (8-i%8)%8) > 0 {
			p = i
			break
		}
	}
	if p < 0 {
		t.Skip("mesh has no nesting cell in the first 256")
	}
	prog := warpProgram(app.childLaunch(0, p, app.Items(p)), 0, 0, nil)
	launches := 0
	ins := drain(t, prog, func(c *kernel.LaunchCandidate) bool {
		launches++
		if c.Def.Name != "amr-grandchild" {
			t.Errorf("nested child name = %s", c.Def.Name)
		}
		return false // decline: child serializes sub-work
	})
	if launches == 0 {
		t.Fatal("child program offered no nested launches")
	}
	k := countKinds(ins)
	if k[kernel.InstrSync] != 1 {
		t.Errorf("child sync = %d, want 1", k[kernel.InstrSync])
	}
	// Declined nested work appears as extra ALU beyond the own item.
	if k[kernel.InstrALU] < 1+app.Nest.SubItems(p, 0) && k[kernel.InstrALU] < 2 {
		t.Errorf("ALU = %d: nested serial work missing", k[kernel.InstrALU])
	}
	// Grandchild program is a plain leaf.
	gins := drain(t, warpProgram(app.grandchildLaunch(0, p, 0, app.Nest.SubItems(p, 0)), 0, 0, nil), nil)
	if countKinds(gins)[kernel.InstrLaunch] != 0 {
		t.Error("grandchild must not launch further")
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Fatalf("registry has %d benchmarks, want 13", len(names))
	}
	want := map[string]bool{
		"AMR": true, "BFS-citation": true, "BFS-graph500": true,
		"SSSP-citation": true, "SSSP-graph500": true,
		"JOIN-uniform": true, "JOIN-gaussian": true,
		"GC-citation": true, "GC-graph500": true,
		"Mandel": true, "MM-small": true, "MM-large": true, "SA-thaliana": true,
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected benchmark %q", n)
		}
	}
	if _, err := ByName("BFS-citation"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("SA-elegans"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName should reject unknown names")
	}
}

func TestEveryBenchmarkBuildsValidDefs(t *testing.T) {
	for _, b := range append(Registry(), Figure21Extras()...) {
		app := b.Make()
		def, err := ParentDef(app)
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if err := def.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if app.TotalWork() <= 0 {
			t.Errorf("%s: zero total work", b.Name)
		}
		// Child defs for the busiest parent must validate too.
		busiest, max := 0, -1
		for p := 0; p < app.Elements; p++ {
			if m := app.Items(p); m > max {
				busiest, max = p, m
			}
		}
		if max > 0 {
			c := app.childLaunch(0, busiest, max)
			if err := c.Def.ValidateLaunch(c.GridCTAs, c.Threads); err != nil {
				t.Errorf("%s child: %v", b.Name, err)
			}
		}
	}
}
