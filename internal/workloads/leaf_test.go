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

// activeRunner returns the runner that emitted prog's last instruction,
// or nil when the program emitted it itself (set-up loads, launches,
// syncs).
func activeRunner(prog kernel.Program) *leafRunner {
	switch p := prog.(type) {
	case *parentProg:
		switch p.phase {
		case phSerial:
			return p.serial
		case phNested:
			return p.nested
		}
	case *childProg:
		switch p.phase {
		case chOwn:
			return p.own
		case chNested:
			return p.nested
		}
	case *grandchildProg:
		return p.r
	}
	return nil
}

// lockstep drains prog, deciding every launch candidate with a seeded
// coin, and checks each instruction a runner emits against a
// refLeafRunner built from the same inputs when the runner first
// speaks. A reference must be exhausted when its runner falls silent.
// It returns the candidate defs the program offered and the number of
// runner instructions it checked.
func lockstep(t *testing.T, name string, prog kernel.Program, r *rand.Rand) (defs []*kernel.Def, checked int) {
	t.Helper()
	var cur *leafRunner
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
			return defs, checked
		}
		if in.Kind == kernel.InstrLaunch {
			x.Accepted = x.Accepted[:0]
			for i := range in.Candidates {
				x.Accepted = append(x.Accepted, r.Intn(2) == 0)
				defs = append(defs, in.Candidates[i].Def)
			}
		}
		lr := activeRunner(prog)
		if lr != cur {
			leave()
		}
		if lr == nil {
			continue
		}
		if ref == nil {
			cur, ref, emitted = lr, newRefLeafRunner(lr.ops, lr.lanes, lr.jOf, lr.pOf), 0
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

// warpsOf picks up to n seeded (cta, warp) pairs of def that have at
// least one lane.
func warpsOf(def *kernel.Def, r *rand.Rand, n int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		cta := r.Intn(def.GridCTAs)
		threads := min(def.CTAThreads, def.Threads-cta*def.CTAThreads)
		out = append(out, [2]int{cta, r.Intn((threads + 31) / 32)})
	}
	return out
}

// TestLeafRunnerMatchesReference drives parent, child and grandchild
// warps of every Registry app with seeded accept masks, and holds every
// instruction their runners emit to the reference runner's.
func TestLeafRunnerMatchesReference(t *testing.T) {
	for i, bm := range Registry() {
		t.Run(bm.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(i) + 1))
			app := bm.Make()
			parent, err := ParentDef(app)
			if err != nil {
				t.Fatal(err)
			}
			// Depth 0 drives parent warps, 1 child warps, 2 grandchild
			// warps (AMR only): up to 4 defs a level, 2 warps each.
			depths := 2
			if app.Nest != nil {
				depths = 3
			}
			defs := []*kernel.Def{parent}
			for depth := 0; depth < depths; depth++ {
				var next []*kernel.Def
				checked := 0
				for _, def := range defs[:min(len(defs), 4)] {
					for _, cw := range warpsOf(def, r, 2) {
						name := fmt.Sprintf("%s cta %d warp %d", def.Name, cw[0], cw[1])
						d, n := lockstep(t, name, def.NewProgram(cw[0], cw[1]), r)
						next = append(next, d...)
						checked += n
					}
				}
				if checked == 0 {
					t.Fatalf("depth %d: no runner instruction checked", depth)
				}
				r.Shuffle(len(next), func(a, b int) { next[a], next[b] = next[b], next[a] })
				defs = next
			}
		})
	}
}

// BenchmarkLeafRunner times the serial fallback of one parent warp, the
// work the flat scheme runs everywhere: a leafRunner over the first
// section element of each of parent warp 0's lanes, every lane
// declined, drained to the end. It reports the instructions per op.
func BenchmarkLeafRunner(b *testing.B) {
	for _, bm := range Registry() {
		b.Run(bm.Name, func(b *testing.B) {
			app := bm.Make()
			if err := app.Normalize(); err != nil {
				b.Fatal(err)
			}
			lanes := make([]laneWork, 32)
			for lane := range lanes {
				if e := lane * app.Section; e < app.Elements {
					lanes[lane] = laneWork{p: e, count: app.Items(e)}
				}
			}
			var in kernel.Instr
			instrs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lr := newLeafRunner(&app.Ops, lanes, selfItem, nil)
				for in.Reset(); lr.next(&in); in.Reset() {
					instrs++
				}
			}
			b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
		})
	}
}
