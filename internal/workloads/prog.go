package workloads

import (
	"math/bits"

	"spawnsim/internal/sim/kernel"
)

// laneWork is one lane's share of a leafRunner: items 0..count-1 of
// parent key p.
type laneWork struct {
	p     int
	count int
}

// laneItem is one lane's place in its walk and the item it is on: the
// ops' p and j arguments and the inner trip count, 0 when the lane has
// no item left. A nested walk is on sub-item j of item next-1 of its
// laneWork, which has sub sub-items. Counts and indices are 32-bit so a
// lane takes 24 bytes.
type laneItem struct {
	p         int
	j, inner  int32
	next, sub int32
}

// warpWidth is the lane count the programs model: warp w of a CTA
// covers its threads w*warpWidth onwards.
const warpWidth = 32

// cursor walks one work item's emission points: per inner iteration
// one ALU, then one batched load instruction covering every load slot
// (the slots are independent accesses, so they overlap — memory-level
// parallelism), then one batched store; after the last iteration, the
// batched final stores.
type cursor struct {
	it       int
	maxInner int
	phase    int // 0 alu, 1 loads, 2 stores, 3 final stores
}

// advance moves to the next emission point after the current one and
// reports whether the item is finished.
func (c *cursor) advance(ops *ItemOps) bool {
	switch c.phase {
	case 0:
		if ops.Loads > 0 {
			c.phase = 1
			return false
		}
		fallthrough
	case 1:
		if ops.Stores > 0 {
			c.phase = 2
			return false
		}
		fallthrough
	case 2:
		// Inner iteration finished.
		c.it++
		if c.it < c.maxInner {
			c.phase = 0
			return false
		}
		if ops.FinalStores > 0 {
			c.phase = 3
			return false
		}
	}
	return true
}

// slots returns the memory slot range of a load (phase 1) or store
// (phase 2) emission point.
func (c *cursor) slots(ops *ItemOps) (lo, hi int) {
	if c.phase == 2 {
		return ops.Loads, ops.Loads + ops.Stores
	}
	return 0, ops.Loads
}

// leafRunner emits the SIMT-lockstep instruction stream of a warp whose
// lanes each process a sequence of work items with the given ItemOps:
// the warp iterates to the deepest lane (Figure 1's intra-warp
// imbalance), masking lanes out of memory slots as they run dry.
//
// Every lane walks its items in order, so a lane's whole state is its
// laneItem. With a nest, a lane walks the sub-items of its laneWork's
// items instead — (nest.Encode(p, j), k) for k < nest.SubItems(p, j),
// item after item — which is the fully serialized AMR fallback.
type leafRunner struct {
	ops   *ItemOps
	nest  *Nest
	lanes []laneWork
	// cur holds every lane's walk, advanced once per item by enterItem.
	cur []laneItem

	cursor
	done bool
}

// reset starts r over lanes, keeping cur's capacity. A nested walk
// (non-nil nest) runs with ops = &nest.Ops.
func (r *leafRunner) reset(ops *ItemOps, nest *Nest, lanes []laneWork) {
	*r = leafRunner{ops: ops, nest: nest, lanes: lanes, cur: r.cur[:0]}
	if cap(r.cur) < len(lanes) {
		r.cur = make([]laneItem, len(lanes))
	}
	r.cur = r.cur[:len(lanes)]
	for lane := range r.cur {
		r.cur[lane] = laneItem{j: -1}
	}
	r.enterItem()
}

// enterItem moves every lane to its next item; the runner is done when
// none has one.
func (r *leafRunner) enterItem() {
	r.maxInner = 0
	for lane := range r.cur {
		if c := &r.cur[lane]; r.step(r.lanes[lane], c) {
			r.maxInner = max(r.maxInner, int(c.inner))
		}
	}
	r.it, r.phase = 0, 0
	r.done = r.maxInner == 0
}

// step moves c, the walk of lane work lw, to its next item and reports
// whether there is one.
func (r *leafRunner) step(lw laneWork, c *laneItem) bool {
	if r.nest == nil {
		if int(c.j)+1 >= lw.count {
			c.inner = 0
			return false
		}
		c.p = lw.p
		c.j++
	} else {
		for c.j+1 >= c.sub {
			if int(c.next) >= lw.count {
				c.inner = 0
				return false
			}
			c.p = r.nest.Encode(lw.p, int(c.next))
			c.sub = int32(r.nest.SubItems(lw.p, int(c.next)))
			c.j = -1
			c.next++
		}
		c.j++
	}
	c.inner = int32(r.ops.inner(c.p, int(c.j)))
	return true
}

// advance moves to the next emission point after the current one.
func (r *leafRunner) advance() {
	if r.cursor.advance(r.ops) {
		r.enterItem()
	}
}

// next fills the next instruction; false when the runner is exhausted.
func (r *leafRunner) next(in *kernel.Instr) bool {
	for !r.done {
		switch r.phase {
		case 0: // one ALU per inner iteration
			in.Kind = kernel.InstrALU
			in.Lat = uint32(r.ops.ALULat)
			r.advance()
			return true
		case 1, 2: // batched load/store slots of this inner iteration
			lo, hi := r.slots(r.ops)
			n := 0
			for _, c := range r.cur {
				if int(c.inner) > r.it {
					for slot := lo; slot < hi; slot++ {
						in.Addrs = append(in.Addrs, r.ops.Addr(c.p, int(c.j), r.it, slot))
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
			for _, c := range r.cur {
				if c.inner > 0 {
					for slot := 0; slot < r.ops.FinalStores; slot++ {
						in.Addrs = append(in.Addrs, r.ops.FinalAddr(c.p, int(c.j), slot))
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

// itemWarp emits the stream of a warp whose lanes each process exactly
// one work item, lane l item base+l of parent key p: every child and
// grandchild warp. It is the leafRunner of that case, instruction for
// instruction, with its only per-lane state — the inner trip counts —
// embedded, so it lives in the program (128 bytes; a warp parked at the
// sync holds no more) and a recycled program reuses it.
type itemWarp struct {
	ops   *ItemOps
	p     int
	base  int
	lanes int
	inner [warpWidth]uint32
	cursor
	done bool
}

// reset starts the warp's item over lanes lanes (at most warpWidth).
func (r *itemWarp) reset(ops *ItemOps, p, base, lanes int) {
	lanes = min(lanes, warpWidth)
	r.ops, r.p, r.base, r.lanes = ops, p, base, lanes
	r.cursor = cursor{}
	r.done = lanes <= 0
	for l := 0; l < lanes; l++ {
		n := ops.inner(p, base+l)
		r.inner[l] = uint32(n)
		r.maxInner = max(r.maxInner, n)
	}
}

// next fills the next instruction; false when the item is finished.
func (r *itemWarp) next(in *kernel.Instr) bool {
	for !r.done {
		switch r.phase {
		case 0:
			in.Kind = kernel.InstrALU
			in.Lat = uint32(r.ops.ALULat)
			r.done = r.advance(r.ops)
			return true
		case 1, 2:
			lo, hi := r.slots(r.ops)
			n := 0
			for l, inner := range r.inner[:r.lanes] {
				if int(inner) > r.it {
					for slot := lo; slot < hi; slot++ {
						in.Addrs = append(in.Addrs, r.ops.Addr(r.p, r.base+l, r.it, slot))
					}
					n++
				}
			}
			if n > 0 {
				in.Kind = kernel.InstrMem
				in.Store = r.phase == 2
				r.done = r.advance(r.ops)
				return true
			}
			in.Addrs = in.Addrs[:0]
			r.done = r.advance(r.ops) // fully masked: no transaction
		case 3:
			// Every lane's item has at least one inner iteration.
			for l := 0; l < r.lanes; l++ {
				for slot := 0; slot < r.ops.FinalStores; slot++ {
					in.Addrs = append(in.Addrs, r.ops.FinalAddr(r.p, r.base+l, slot))
				}
			}
			in.Kind = kernel.InstrMem
			in.Store = true
			r.done = r.advance(r.ops)
			return true
		}
	}
	return false
}

// accepts reports which lanes a launch's policy accepted: lanes has bit
// l set when lane l offered a candidate, candidates in ascending lane
// order, and accepted is the per-candidate decision.
type accepts struct {
	lanes    uint32
	accepted []bool
}

func (a accepts) has(lane int) bool {
	bit := uint32(1) << lane
	if a.lanes&bit == 0 {
		return false
	}
	i := bits.OnesCount32(a.lanes & (bit - 1))
	return i < len(a.accepted) && a.accepted[i]
}

// parentProg is the Figure 3 parent-kernel program of one warp. Each
// lane's parent thread walks its section of elements; every element is
// one launch site followed by the serial fallback for declined work.
type parentProg struct {
	app *App
	// Lane l runs parent thread base+l, for l < lanes.
	base, lanes int

	sec       int // current section slot
	phase     int
	setupSlot int
	candLanes uint32 // lanes with a candidate in the current launch

	// serial runs each section's serial fallback over its declined
	// lanes, then, with a Nest, their sub-items over the same lanes,
	// reusing its buffers across sections. It is emptied at the sync, so
	// a parked warp keeps no lane state.
	serial leafRunner
}

const (
	phSetup = iota
	phLaunch
	phAfterLaunch
	phSerial
	phNested
	phSync
	phDone
)

// elem returns the element lane processes in section slot sec
// (-1 when past the end of the input).
func (pp *parentProg) elem(lane int) int {
	e := (pp.base+lane)*pp.app.Section + pp.sec
	if e >= pp.app.Elements {
		return -1
	}
	return e
}

func (pp *parentProg) Next(x *kernel.Exec, in *kernel.Instr) bool {
	app := pp.app
	for {
		switch pp.phase {
		case phSetup:
			if pp.sec >= app.Section {
				pp.phase = phSync
				continue
			}
			if app.SetupLoads == 0 {
				pp.phase = phLaunch
				continue
			}
			n := 0
			for lane := 0; lane < pp.lanes; lane++ {
				if e := pp.elem(lane); e >= 0 {
					in.Addrs = append(in.Addrs, app.SetupAddr(e, pp.setupSlot))
					n++
				}
			}
			pp.setupSlot++
			if pp.setupSlot >= app.SetupLoads {
				pp.setupSlot = 0
				pp.phase = phLaunch
			}
			if n == 0 {
				in.Addrs = in.Addrs[:0]
				continue
			}
			in.Kind = kernel.InstrMem
			return true
		case phLaunch:
			in.Kind = kernel.InstrLaunch
			pp.candLanes = 0
			for lane := 0; lane < pp.lanes; lane++ {
				e := pp.elem(lane)
				if e < 0 {
					continue
				}
				items := app.Items(e)
				if items <= 0 {
					continue
				}
				in.Candidates = append(in.Candidates, app.childLaunch(lane, e, items))
				pp.candLanes |= 1 << lane
			}
			pp.phase = phAfterLaunch
			return true
		case phAfterLaunch:
			// Build the serial fallback from the declined lanes.
			declined := pp.serial.lanes[:0]
			acc := accepts{lanes: pp.candLanes, accepted: x.Accepted}
			for lane := 0; lane < pp.lanes; lane++ {
				var lw laneWork
				if e := pp.elem(lane); e >= 0 && !acc.has(lane) {
					lw = laneWork{p: e, count: app.Items(e)}
				}
				declined = append(declined, lw)
			}
			pp.serial.reset(&app.Ops, nil, declined)
			pp.phase = phSerial
		case phSerial:
			if pp.serial.next(in) {
				return true
			}
			if app.Nest != nil {
				// The declined lanes' items run their sub-items
				// serially too.
				pp.serial.reset(&app.Nest.Ops, app.Nest, pp.serial.lanes)
			}
			pp.phase = phNested
		case phNested:
			if pp.serial.next(in) {
				return true
			}
			pp.sec++
			pp.phase = phSetup
		case phSync:
			// A warp parked at the sync keeps no runner lane state.
			pp.serial = leafRunner{}
			in.Kind = kernel.InstrSync
			pp.phase = phDone
			return true
		default:
			return false
		}
	}
}

// childProg is the child-kernel program of one warp: each lane owns one
// work item; with a Nest, lanes then reach their own launch site.
type childProg struct {
	app *App
	own itemWarp

	phase     int
	candLanes uint32
	nested    *leafRunner
}

const (
	chOwn = iota
	chLaunch
	chAfterLaunch
	chNested
	chSync
	chDone
)

func (cp *childProg) Next(x *kernel.Exec, in *kernel.Instr) bool {
	app := cp.app
	p, base := cp.own.p, cp.own.base
	for {
		switch cp.phase {
		case chOwn:
			if cp.own.next(in) {
				return true
			}
			if app.Nest == nil {
				cp.phase = chDone
				continue
			}
			cp.phase = chLaunch
		case chLaunch:
			in.Kind = kernel.InstrLaunch
			cp.candLanes = 0
			for lane := 0; lane < cp.own.lanes; lane++ {
				j := base + lane
				sub := app.Nest.SubItems(p, j)
				if sub <= 0 {
					continue
				}
				in.Candidates = append(in.Candidates, app.grandchildLaunch(lane, p, j, sub))
				cp.candLanes |= 1 << lane
			}
			cp.phase = chAfterLaunch
			return true
		case chAfterLaunch:
			// A declined lane runs its item's sub-items serially; each
			// lane's parent key is its item's encoded (p, j).
			acc := accepts{lanes: cp.candLanes, accepted: x.Accepted}
			nest := app.Nest
			cp.nested = app.takeNested()
			lanes := cp.nested.lanes[:0]
			for lane := 0; lane < cp.own.lanes; lane++ {
				var lw laneWork
				if j := base + lane; !acc.has(lane) {
					if sub := nest.SubItems(p, j); sub > 0 {
						lw = laneWork{p: nest.Encode(p, j), count: sub}
					}
				}
				lanes = append(lanes, lw)
			}
			cp.nested.reset(&nest.Ops, nil, lanes)
			cp.phase = chNested
		case chNested:
			if cp.nested.next(in) {
				return true
			}
			// Hand the exhausted runner back: a warp parked at the sync
			// waiting for grandchildren must not keep its lane state.
			app.spareNested = append(app.spareNested, cp.nested)
			cp.nested = nil
			cp.phase = chSync
		case chSync:
			in.Kind = kernel.InstrSync
			cp.phase = chDone
			return true
		default:
			return false
		}
	}
}

// takeNested returns an exhausted child-warp nested runner for reuse, or
// a new one with room for a warp's lanes.
func (a *App) takeNested() *leafRunner {
	n := len(a.spareNested)
	if n == 0 {
		return &leafRunner{lanes: make([]laneWork, 0, warpWidth), cur: make([]laneItem, 0, warpWidth)}
	}
	r := a.spareNested[n-1]
	a.spareNested = a.spareNested[:n-1]
	return r
}

// grandchildProg runs nested items of one (p, j) with no further nesting.
type grandchildProg struct{ own itemWarp }

func (gp *grandchildProg) Next(x *kernel.Exec, in *kernel.Instr) bool { return gp.own.next(in) }

// ParentDef builds the host-launched parent kernel of an App, and the
// child and grandchild Defs its launches use, so an override of the
// App's fields made before the call (Figure 7's ChildCTASize) reaches
// every device launch.
func ParentDef(app *App) (*kernel.Def, error) {
	if err := app.Normalize(); err != nil {
		return nil, err
	}
	app.child = &kernel.Def{
		Name:          app.Name + "-child",
		CTAThreads:    app.ChildCTASize,
		RegsPerThread: app.RegsChild,
		NewProgram:    app.newChildProg,
	}
	app.grandchild = nil
	if app.Nest != nil {
		app.grandchild = &kernel.Def{
			Name:          app.Name + "-grandchild",
			CTAThreads:    app.Nest.CTASize,
			RegsPerThread: app.RegsChild,
			NewProgram:    app.newGrandchildProg,
		}
	}
	parents := app.ParentThreads()
	return &kernel.Def{
		Name:          app.Name + "-parent",
		GridCTAs:      kernel.GridFor(parents, app.ParentCTASize),
		CTAThreads:    app.ParentCTASize,
		Threads:       parents,
		RegsPerThread: app.RegsParent,
		NewProgram:    app.newParentProg,
	}, nil
}

// newParentProg is the parent Def's NewProgram; host launches carry no
// argument.
func (a *App) newParentProg(_, cta, warp, lanes int, old kernel.Program) kernel.Program {
	pp, _ := old.(*parentProg)
	if pp == nil {
		pp = &parentProg{}
	}
	*pp = parentProg{
		app:    a,
		base:   cta*a.ParentCTASize + warp*warpWidth,
		lanes:  lanes,
		serial: leafRunner{lanes: make([]laneWork, 0, lanes)},
	}
	return pp
}

// childLaunch is lane's launch of the child kernel of element e, which
// has items work items: one child thread per item.
func (a *App) childLaunch(lane, e, items int) kernel.LaunchCandidate {
	return kernel.LaunchCandidate{
		Lane:     lane,
		Workload: a.Metric(e),
		Def:      a.child,
		GridCTAs: kernel.GridFor(items, a.child.CTAThreads),
		Threads:  items,
		Arg:      e,
	}
}

// newChildProg is the child Def's NewProgram; the argument is the
// launching element.
func (a *App) newChildProg(p, cta, warp, lanes int, old kernel.Program) kernel.Program {
	cp, _ := old.(*childProg)
	if cp == nil {
		cp = &childProg{}
	}
	cp.app, cp.phase, cp.candLanes, cp.nested = a, chOwn, 0, nil
	cp.own.reset(&a.Ops, p, cta*a.child.CTAThreads+warp*warpWidth, lanes)
	return cp
}

// grandchildLaunch is lane's launch of the nested kernel of item j of
// element p, which has sub sub-items.
func (a *App) grandchildLaunch(lane, p, j, sub int) kernel.LaunchCandidate {
	return kernel.LaunchCandidate{
		Lane:     lane,
		Workload: sub,
		Def:      a.grandchild,
		GridCTAs: kernel.GridFor(sub, a.grandchild.CTAThreads),
		Threads:  sub,
		Arg:      a.Nest.Encode(p, j),
	}
}

// newGrandchildProg is the grandchild Def's NewProgram; the argument is
// the encoded (p, j) key of the nested ops.
func (a *App) newGrandchildProg(enc, cta, warp, lanes int, old kernel.Program) kernel.Program {
	gp, _ := old.(*grandchildProg)
	if gp == nil {
		gp = &grandchildProg{}
	}
	gp.own.reset(&a.Nest.Ops, enc, cta*a.grandchild.CTAThreads+warp*warpWidth, lanes)
	return gp
}
