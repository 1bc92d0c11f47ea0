package workloads

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spawnsim/internal/sim/kernel"
)

// refLeafRunner is the leaf runner as it was before lanes cached their
// item: laneActive re-ran the pKey, jOf and Inner closures for every lane
// on every memory slot. It is the oracle of
// TestLeafRunnerMatchesReference.
//
// It emits the SIMT-lockstep instruction stream of a warp whose
// lanes each process a sequence of work items with the given ItemOps:
// the warp iterates to the deepest lane (Figure 1's intra-warp
// imbalance), masking lanes out of memory slots as they run dry.
type refLeafRunner struct {
	ops   *ItemOps
	lanes []laneWork
	// jOf maps (lane, item index) to the ops' j argument; pOf overrides
	// the parent key per item (nil = lane's constant p).
	jOf func(lane, item int) int
	pOf func(lane, item int) int

	maxCount int
	j        int
	it       int
	maxInner int
	phase    int // 0 alu, 1 loads, 2 stores, 3 final stores
	done     bool
}

func newRefLeafRunner(ops *ItemOps, lanes []laneWork, jOf, pOf func(lane, item int) int) *refLeafRunner {
	r := &refLeafRunner{ops: ops, lanes: lanes, jOf: jOf, pOf: pOf}
	for _, l := range lanes {
		if l.count > r.maxCount {
			r.maxCount = l.count
		}
	}
	if r.maxCount == 0 {
		r.done = true
		return r
	}
	r.enterItem()
	return r
}

func (r *refLeafRunner) pKey(lane, item int) int {
	if r.pOf != nil {
		return r.pOf(lane, item)
	}
	return r.lanes[lane].p
}

// enterItem prepares iteration state for item r.j.
func (r *refLeafRunner) enterItem() {
	r.maxInner = 0
	for lane, l := range r.lanes {
		if l.count > r.j {
			if n := r.ops.inner(r.pKey(lane, r.j), r.jOf(lane, r.j)); n > r.maxInner {
				r.maxInner = n
			}
		}
	}
	r.it, r.phase = 0, 0
}

// laneActive reports whether lane participates in (item j, iteration it).
func (r *refLeafRunner) laneActive(lane int) bool {
	l := r.lanes[lane]
	if l.count <= r.j {
		return false
	}
	return r.ops.inner(r.pKey(lane, r.j), r.jOf(lane, r.j)) > r.it
}

// advance moves to the next emission point after the current one.
// An inner iteration emits one ALU, then one batched load instruction
// covering every load slot (the slots are independent accesses, so they
// overlap — memory-level parallelism), then one batched store.
func (r *refLeafRunner) advance() {
	switch r.phase {
	case 0:
		if r.ops.Loads > 0 {
			r.phase = 1
			return
		}
		fallthrough
	case 1:
		if r.ops.Stores > 0 {
			r.phase = 2
			return
		}
		fallthrough
	case 2:
		// Inner iteration finished.
		r.it++
		if r.it < r.maxInner {
			r.phase = 0
			return
		}
		if r.ops.FinalStores > 0 {
			r.phase = 3
			return
		}
		r.nextItem()
	case 3:
		r.nextItem()
	}
}

func (r *refLeafRunner) nextItem() {
	r.j++
	if r.j >= r.maxCount {
		r.done = true
		return
	}
	r.enterItem()
}

// next fills the next instruction; false when the runner is exhausted.
func (r *refLeafRunner) next(in *kernel.Instr) bool {
	for !r.done {
		switch r.phase {
		case 0: // one ALU per inner iteration
			in.Kind = kernel.InstrALU
			in.Lat = uint32(r.ops.ALULat)
			r.advance()
			return true
		case 1, 2: // batched load/store slots of this inner iteration
			lo, hi := 0, r.ops.Loads
			if r.phase == 2 {
				lo, hi = r.ops.Loads, r.ops.Loads+r.ops.Stores
			}
			n := 0
			for lane := range r.lanes {
				if r.laneActive(lane) {
					p, j := r.pKey(lane, r.j), r.jOf(lane, r.j)
					for slot := lo; slot < hi; slot++ {
						in.Addrs = append(in.Addrs, r.ops.Addr(p, j, r.it, slot))
					}
					n++
				}
			}
			if n > 0 {
				in.Kind = kernel.InstrMem
				in.Store = r.phase == 2
				r.advance()
				return true
			}
			in.Addrs = in.Addrs[:0]
			r.advance() // fully masked: no transaction
		case 3: // batched final stores of this item
			n := 0
			for lane, l := range r.lanes {
				if l.count > r.j {
					p, j := r.pKey(lane, r.j), r.jOf(lane, r.j)
					for slot := 0; slot < r.ops.FinalStores; slot++ {
						in.Addrs = append(in.Addrs, r.ops.FinalAddr(p, j, slot))
					}
					n++
				}
			}
			if n > 0 {
				in.Kind = kernel.InstrMem
				in.Store = true
				r.advance()
				return true
			}
			in.Addrs = in.Addrs[:0]
			r.advance()
		}
	}
	return false
}

// listNested is the reference's item source for a nested walk: it lists
// every sub-item (nest.Encode(p, j), k) of the lanes' items, lane after
// lane, as the parent's nested fallback did before it walked them, and
// returns each lane's sub-item count with jOf and pOf over that list.
func listNested(nest *Nest, lanes []laneWork) (counts []laneWork, jOf, pOf func(lane, item int) int) {
	type flat struct{ pEnc, k int }
	perLane := make([][]flat, len(lanes))
	counts = make([]laneWork, len(lanes))
	for lane, lw := range lanes {
		for j := 0; j < lw.count; j++ {
			sub := nest.SubItems(lw.p, j)
			enc := nest.Encode(lw.p, j)
			for k := 0; k < sub; k++ {
				perLane[lane] = append(perLane[lane], flat{enc, k})
			}
		}
		counts[lane] = laneWork{p: lw.p, count: len(perLane[lane])}
	}
	jOf = func(lane, item int) int { return perLane[lane][item].k }
	pOf = func(lane, item int) int { return perLane[lane][item].pEnc }
	return counts, jOf, pOf
}

// runnerKey tells apart the runs of one leafRunner: a parent warp runs
// its serial fallback and then, with a Nest, the nested one on the
// same runner, with no other instruction between them.
type runnerKey struct {
	r     *leafRunner
	phase int
}

// activeRunner returns the runner that emitted prog's last instruction
// — a runnerKey of a *leafRunner or a child or grandchild warp's
// *itemWarp — with a refLeafRunner built from the same inputs, or nil
// when the program emitted it itself (set-up loads, launches, syncs).
func activeRunner(prog kernel.Program) (any, func() *refLeafRunner) {
	leaf := func(r *leafRunner, phase int) (any, func() *refLeafRunner) {
		return runnerKey{r, phase}, func() *refLeafRunner {
			if r.nest != nil {
				lanes, jOf, pOf := listNested(r.nest, r.lanes)
				return newRefLeafRunner(r.ops, lanes, jOf, pOf)
			}
			return newRefLeafRunner(r.ops, r.lanes, func(_, item int) int { return item }, nil)
		}
	}
	item := func(r *itemWarp) (any, func() *refLeafRunner) {
		return r, func() *refLeafRunner {
			lanes := make([]laneWork, r.lanes)
			for l := range lanes {
				lanes[l] = laneWork{p: r.p, count: 1}
			}
			base := r.base
			return newRefLeafRunner(r.ops, lanes, func(lane, _ int) int { return base + lane }, nil)
		}
	}
	switch p := prog.(type) {
	case *parentProg:
		switch p.phase {
		case phSerial, phNested:
			return leaf(&p.serial, p.phase)
		}
	case *childProg:
		switch p.phase {
		case chOwn:
			return item(&p.own)
		case chNested:
			return leaf(p.nested, p.phase)
		}
	case *grandchildProg:
		return item(&p.own)
	}
	return nil, nil
}

// lockstep drains prog, deciding every launch candidate with a seeded
// coin, and checks each instruction a runner emits against a
// refLeafRunner built from the same inputs when the runner first
// speaks. A reference must be exhausted when its runner falls silent.
// It returns the launches the program offered and the number of
// runner instructions it checked.
func lockstep(t *testing.T, name string, prog kernel.Program, r *rand.Rand) (launches []kernel.LaunchCandidate, checked int) {
	t.Helper()
	var cur any
	var ref *refLeafRunner
	emitted := 0
	leave := func() {
		var in kernel.Instr
		if ref != nil && ref.next(&in) {
			t.Fatalf("%s: runner stopped after %d instructions, reference goes on with %+v", name, emitted, in)
		}
		cur, ref = nil, nil
	}
	x := &kernel.Exec{}
	for step := 0; step < 10_000_000; step++ {
		var in kernel.Instr
		if !prog.Next(x, &in) {
			leave()
			return launches, checked
		}
		if in.Kind == kernel.InstrLaunch {
			x.Accepted = x.Accepted[:0]
			for i := range in.Candidates {
				x.Accepted = append(x.Accepted, r.Intn(2) == 0)
				launches = append(launches, in.Candidates[i])
			}
		}
		lr, mkRef := activeRunner(prog)
		if lr != cur {
			leave()
		}
		if lr == nil {
			continue
		}
		if ref == nil {
			cur, ref, emitted = lr, mkRef(), 0
		}
		var want kernel.Instr
		if !ref.next(&want) {
			t.Fatalf("%s: runner emits %+v after the reference's %d instructions", name, in, emitted)
		}
		if in.Kind != want.Kind || in.Lat != want.Lat || in.Store != want.Store || !slices.Equal(in.Addrs, want.Addrs) {
			t.Fatalf("%s: instruction %d of a runner = %+v, reference %+v", name, emitted, in, want)
		}
		emitted++
		checked++
	}
	t.Fatalf("%s: program did not terminate", name)
	return nil, 0
}

// warpsOf picks up to n seeded (cta, warp) pairs of launch c that have
// at least one lane.
func warpsOf(c kernel.LaunchCandidate, r *rand.Rand, n int) [][2]int {
	var out [][2]int
	threads := c.Def.LiveThreads(c.GridCTAs, c.Threads)
	for i := 0; i < n; i++ {
		cta := r.Intn(c.GridCTAs)
		live := min(c.Def.CTAThreads, threads-cta*c.Def.CTAThreads)
		out = append(out, [2]int{cta, r.Intn((live + 31) / 32)})
	}
	return out
}

// launchLevels drives an app's launches level by level from its host
// launch: visit gets up to 4 launches of each depth (0 the parent, 1
// child, 2 grandchild for AMR) and returns the launches its warps
// offered, which feed the next depth in seeded order.
func launchLevels(t *testing.T, app *App, r *rand.Rand, visit func(depth int, launches []kernel.LaunchCandidate) []kernel.LaunchCandidate) {
	t.Helper()
	parent, err := ParentDef(app)
	if err != nil {
		t.Fatal(err)
	}
	depths := 2
	if app.Nest != nil {
		depths = 3
	}
	launches := []kernel.LaunchCandidate{hostLaunch(parent)}
	for depth := 0; depth < depths; depth++ {
		next := visit(depth, launches[:min(len(launches), 4)])
		r.Shuffle(len(next), func(a, b int) { next[a], next[b] = next[b], next[a] })
		launches = next
	}
}

// TestLeafRunnerMatchesReference drives parent, child and grandchild
// warps of every Registry app with seeded accept masks, and holds every
// instruction their runners emit to the reference runner's.
func TestLeafRunnerMatchesReference(t *testing.T) {
	for i, bm := range Registry() {
		t.Run(bm.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(i) + 1))
			launchLevels(t, bm.Make(), r, func(depth int, launches []kernel.LaunchCandidate) []kernel.LaunchCandidate {
				var next []kernel.LaunchCandidate
				checked := 0
				for _, c := range launches {
					for _, cw := range warpsOf(c, r, 2) {
						name := fmt.Sprintf("%s cta %d warp %d", c.Def.Name, cw[0], cw[1])
						l, n := lockstep(t, name, warpProgram(c, cw[0], cw[1], nil), r)
						next = append(next, l...)
						checked += n
					}
				}
				if checked == 0 {
					t.Fatalf("depth %d: no runner instruction checked", depth)
				}
				return next
			})
		})
	}
}

// TestRecycledProgramsMatchFresh reinitialises dirty released programs
// — parent, child and grandchild warps of every Registry app, left
// mid-stream by another launch's warp — and requires each to come back
// as the same object emitting the instruction stream, launches and
// accept feedback included, of a fresh program of the same warp.
func TestRecycledProgramsMatchFresh(t *testing.T) {
	for i, bm := range Registry() {
		t.Run(bm.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(i) + 1))
			launchLevels(t, bm.Make(), r, func(depth int, launches []kernel.LaunchCandidate) []kernel.LaunchCandidate {
				var next []kernel.LaunchCandidate
				for li, c := range launches {
					// The dirty program: a warp of another launch of the
					// same Def, drained part of the way.
					d := launches[(li+1)%len(launches)]
					dw := warpsOf(d, r, 1)[0]
					dirty := warpProgram(d, dw[0], dw[1], nil)
					partial(dirty, r.Intn(64))
					for _, cw := range warpsOf(c, r, 2) {
						seed := r.Int63()
						fresh := record(t, warpProgram(c, cw[0], cw[1], nil), seed)
						reused := warpProgram(c, cw[0], cw[1], dirty)
						if reused != dirty {
							t.Fatalf("%s depth %d: NewProgram allocated instead of reinitialising the released program", c.Def.Name, depth)
						}
						if got := record(t, reused, seed); !slices.EqualFunc(got, fresh, sameInstr) {
							t.Fatalf("%s depth %d cta %d warp %d: recycled program emits %d instructions, fresh %d, or they differ",
								c.Def.Name, depth, cw[0], cw[1], len(got), len(fresh))
						}
						for _, in := range fresh {
							next = append(next, in.Candidates...)
						}
						dirty = reused
					}
				}
				return next
			})
		})
	}
}

// partial issues up to n instructions of prog, accepting every launch.
func partial(prog kernel.Program, n int) {
	x := &kernel.Exec{}
	for i := 0; i < n; i++ {
		var in kernel.Instr
		if !prog.Next(x, &in) {
			return
		}
		x.Accepted = x.Accepted[:0]
		for range in.Candidates {
			x.Accepted = append(x.Accepted, true)
		}
	}
}

// record drains prog, deciding launches with a coin seeded by seed.
func record(t *testing.T, prog kernel.Program, seed int64) []kernel.Instr {
	r := rand.New(rand.NewSource(seed))
	return drain(t, prog, func(*kernel.LaunchCandidate) bool { return r.Intn(2) == 0 })
}

func sameInstr(a, b kernel.Instr) bool {
	return a.Kind == b.Kind && a.Lat == b.Lat && a.Store == b.Store &&
		slices.Equal(a.Addrs, b.Addrs) && slices.Equal(a.Candidates, b.Candidates)
}

// BenchmarkLeafRunner times the serial fallback of one parent warp, the
// work the flat scheme runs everywhere: a leafRunner over the first
// section element of each of parent warp 0's lanes, every lane
// declined, drained to the end. AMR-nested times the nested fallback
// that follows it in an AMR parent warp: the same lanes walking their
// items' sub-items. Each reports the instructions per op; the runner
// is reused across ops, as a parent warp reuses its own across sections.
func BenchmarkLeafRunner(b *testing.B) {
	for _, bm := range Registry() {
		b.Run(bm.Name, func(b *testing.B) {
			app, lanes := warpZeroDeclined(b, bm)
			drainRunner(b, &app.Ops, nil, lanes)
		})
	}
	b.Run("AMR-nested", func(b *testing.B) {
		bm, err := ByName("AMR")
		if err != nil {
			b.Fatal(err)
		}
		app, lanes := warpZeroDeclined(b, bm)
		drainRunner(b, &app.Nest.Ops, app.Nest, lanes)
	})
}

// warpZeroDeclined builds bm's app and the serial fallback lanes of
// parent warp 0 when every lane declines its first section element.
func warpZeroDeclined(b *testing.B, bm Benchmark) (*App, []laneWork) {
	app := bm.Make()
	if err := app.Normalize(); err != nil {
		b.Fatal(err)
	}
	lanes := make([]laneWork, warpWidth)
	for lane := range lanes {
		if e := lane * app.Section; e < app.Elements {
			lanes[lane] = laneWork{p: e, count: app.Items(e)}
		}
	}
	return app, lanes
}

// drainRunner is BenchmarkLeafRunner's op: one runner reset over lanes
// and drained, with allocations reported.
func drainRunner(b *testing.B, ops *ItemOps, nest *Nest, lanes []laneWork) {
	b.ReportAllocs()
	var lr leafRunner
	var in kernel.Instr
	instrs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr.reset(ops, nest, lanes)
		for in.Reset(); lr.next(&in); in.Reset() {
			instrs++
		}
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

// TestChildWarpsReuseNestedRunner runs two AMR child warps one after the
// other with every grandchild launch declined: the second takes the
// nested runner the first handed back, and a warp past its serial
// fallback holds none.
func TestChildWarpsReuseNestedRunner(t *testing.T) {
	bm, err := ByName("AMR")
	if err != nil {
		t.Fatal(err)
	}
	app := bm.Make()
	parent, err := ParentDef(app)
	if err != nil {
		t.Fatal(err)
	}
	var children []kernel.LaunchCandidate
	for _, in := range drain(t, warpProgram(hostLaunch(parent), 0, 0, nil), func(*kernel.LaunchCandidate) bool { return true }) {
		children = append(children, in.Candidates...)
	}
	if len(children) < 2 {
		t.Fatalf("parent warp 0 offered %d child launches, want 2", len(children))
	}
	first := warpProgram(children[0], 0, 0, nil).(*childProg)
	drain(t, first, nil)
	if first.nested != nil || len(app.spareNested) != 1 {
		t.Fatalf("after the first warp: it holds a runner %t, %d spare", first.nested != nil, len(app.spareNested))
	}
	r := app.spareNested[0]
	second := warpProgram(children[1], 0, 0, nil).(*childProg)
	x := &kernel.Exec{}
	for second.phase != chNested {
		var in kernel.Instr
		if !second.Next(x, &in) {
			t.Fatal("the second warp ended before its serial fallback")
		}
		x.Accepted = make([]bool, len(in.Candidates))
	}
	if second.nested != r || len(app.spareNested) != 0 {
		t.Fatalf("the second warp runs a new runner %t, %d spare", second.nested != r, len(app.spareNested))
	}
	drain(t, second, nil)
	if second.nested != nil || len(app.spareNested) != 1 || app.spareNested[0] != r {
		t.Fatalf("after the second warp: it holds a runner %t, %d spare", second.nested != nil, len(app.spareNested))
	}
}

// TestParentSectionsAllocateNothing runs an AMR parent warp's program
// again and again with every launch declined, so each of its sections
// runs the serial and the nested fallback: a life allocates only the
// runner's two lane buffers, which every section reuses, and the warp
// holds neither at its sync.
func TestParentSectionsAllocateNothing(t *testing.T) {
	bm, err := ByName("AMR")
	if err != nil {
		t.Fatal(err)
	}
	parent, err := ParentDef(bm.Make())
	if err != nil {
		t.Fatal(err)
	}
	host := hostLaunch(parent)
	x := &kernel.Exec{}
	var in kernel.Instr
	var prog kernel.Program
	nested := 0
	life := func() {
		prog = warpProgram(host, 0, 0, prog)
		for in.Reset(); prog.Next(x, &in); in.Reset() {
			if in.Kind == kernel.InstrLaunch {
				x.Accepted = x.Accepted[:0]
				for range in.Candidates {
					x.Accepted = append(x.Accepted, false)
				}
			}
			pp := prog.(*parentProg)
			if pp.phase == phNested {
				nested++
			}
			if in.Kind == kernel.InstrSync && (pp.serial.lanes != nil || pp.serial.cur != nil) {
				t.Fatal("a parent warp at its sync holds lane buffers")
			}
		}
	}
	life()
	if nested == 0 {
		t.Fatal("parent warp 0 ran no nested fallback")
	}
	if got := testing.AllocsPerRun(3, life); got > 2 {
		t.Errorf("a parent warp's life made %.0f allocations, want its 2 lane buffers", got)
	}
}
