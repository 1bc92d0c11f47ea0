package workloads

import "spawnsim/internal/sim/kernel"

// laneWork is one lane's share of a leafRunner.
type laneWork struct {
	p     int // default ops parent key
	count int // items this lane processes
}

// laneItem caches one lane's current item: the ops' p and j arguments
// and the inner trip count, 0 when the lane has no item left.
type laneItem struct {
	p, j, inner int
}

// leafRunner emits the SIMT-lockstep instruction stream of a warp whose
// lanes each process a sequence of work items with the given ItemOps:
// the warp iterates to the deepest lane (Figure 1's intra-warp
// imbalance), masking lanes out of memory slots as they run dry.
type leafRunner struct {
	ops   *ItemOps
	lanes []laneWork
	// jOf maps (lane, item index) to the ops' j argument; pOf overrides
	// the parent key per item (nil = lane's constant p).
	jOf func(lane, item int) int
	pOf func(lane, item int) int
	// cur holds every lane's item r.j, filled once per item by enterItem.
	cur []laneItem

	maxCount int
	j        int
	it       int
	maxInner int
	phase    int // 0 alu, 1 loads, 2 stores, 3 final stores
	done     bool
}

func newLeafRunner(ops *ItemOps, lanes []laneWork, jOf, pOf func(lane, item int) int) *leafRunner {
	r := &leafRunner{ops: ops, lanes: lanes, jOf: jOf, pOf: pOf}
	for _, l := range lanes {
		if l.count > r.maxCount {
			r.maxCount = l.count
		}
	}
	if r.maxCount == 0 {
		r.done = true
		return r
	}
	r.cur = make([]laneItem, len(lanes))
	r.enterItem()
	return r
}

// enterItem prepares iteration state for item r.j.
func (r *leafRunner) enterItem() {
	r.maxInner = 0
	for lane, l := range r.lanes {
		c := &r.cur[lane]
		c.inner = 0
		if l.count <= r.j {
			continue
		}
		c.p = l.p
		if r.pOf != nil {
			c.p = r.pOf(lane, r.j)
		}
		c.j = r.jOf(lane, r.j)
		c.inner = r.ops.inner(c.p, c.j)
		r.maxInner = max(r.maxInner, c.inner)
	}
	r.it, r.phase = 0, 0
}

// advance moves to the next emission point after the current one.
// An inner iteration emits one ALU, then one batched load instruction
// covering every load slot (the slots are independent accesses, so they
// overlap — memory-level parallelism), then one batched store.
func (r *leafRunner) advance() {
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

func (r *leafRunner) nextItem() {
	r.j++
	if r.j >= r.maxCount {
		r.done = true
		return
	}
	r.enterItem()
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
			lo, hi := 0, r.ops.Loads
			if r.phase == 2 {
				lo, hi = r.ops.Loads, r.ops.Loads+r.ops.Stores
			}
			n := 0
			for _, c := range r.cur {
				if c.inner > r.it {
					for slot := lo; slot < hi; slot++ {
						in.Addrs = append(in.Addrs, r.ops.Addr(c.p, c.j, r.it, slot))
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
						in.Addrs = append(in.Addrs, r.ops.FinalAddr(c.p, c.j, slot))
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

// acceptWalk reports which lanes a launch's policy accepted: lanes
// lists the candidates' lanes in ascending order and accepted is the
// per-candidate decision. Queries must come in ascending lane order.
type acceptWalk struct {
	lanes    []int
	accepted []bool
	i        int
}

func (a *acceptWalk) has(lane int) bool {
	for a.i < len(a.lanes) && a.lanes[a.i] < lane {
		a.i++
	}
	return a.i < len(a.lanes) && a.lanes[a.i] == lane && a.i < len(a.accepted) && a.accepted[a.i]
}

// selfItem returns jOf for lanes whose items are numbered 0..count-1
// within themselves (the parent serial loop).
func selfItem(lane, item int) int { return item }

// parentProg is the Figure 3 parent-kernel program of one warp. Each
// lane's parent thread walks its section of elements; every element is
// one launch site followed by the serial fallback for declined work.
type parentProg struct {
	app *App
	ps  []int // parent thread id per lane

	sec       int // current section slot
	phase     int
	setupSlot int
	candLanes []int // lane index per candidate of the current launch

	serial *leafRunner
	nested *leafRunner
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
	e := pp.ps[lane]*pp.app.Section + pp.sec
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
			for lane := range pp.ps {
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
			pp.candLanes = pp.candLanes[:0]
			for lane := range pp.ps {
				e := pp.elem(lane)
				if e < 0 || app.Items(e) <= 0 {
					continue
				}
				in.Candidates = append(in.Candidates, kernel.LaunchCandidate{
					Lane:     lane,
					Workload: app.Metric(e),
					Def:      childDef(app, e),
				})
				pp.candLanes = append(pp.candLanes, lane)
			}
			pp.phase = phAfterLaunch
			return true
		case phAfterLaunch:
			// Build the serial fallback from the declined lanes.
			declined := make([]laneWork, len(pp.ps))
			acc := acceptWalk{lanes: pp.candLanes, accepted: x.Accepted}
			for lane := range pp.ps {
				if e := pp.elem(lane); e >= 0 && !acc.has(lane) {
					declined[lane] = laneWork{p: e, count: app.Items(e)}
				}
			}
			pp.serial = newLeafRunner(&app.Ops, declined, selfItem, nil)
			if app.Nest != nil {
				pp.nested = nestedSerialRunner(app, declined)
			}
			pp.phase = phSerial
		case phSerial:
			if pp.serial.next(in) {
				return true
			}
			pp.serial = nil
			pp.phase = phNested
		case phNested:
			if pp.nested != nil && pp.nested.next(in) {
				return true
			}
			pp.nested = nil
			pp.sec++
			pp.phase = phSetup
		case phSync:
			in.Kind = kernel.InstrSync
			pp.phase = phDone
			return true
		default:
			return false
		}
	}
}

// nestedSerialRunner flattens the declined lanes' nested sub-items into
// a second serial pass (the fully-serialized AMR fallback). The lanes'
// p fields carry the element ids.
func nestedSerialRunner(app *App, declined []laneWork) *leafRunner {
	nest := app.Nest
	type flat struct{ pEnc, k int }
	perLane := make([][]flat, len(declined))
	lanes := make([]laneWork, len(declined))
	for lane, lw := range declined {
		e := lw.p
		for j := 0; j < lw.count; j++ {
			sub := nest.SubItems(e, j)
			enc := nest.Encode(e, j)
			for k := 0; k < sub; k++ {
				perLane[lane] = append(perLane[lane], flat{enc, k})
			}
		}
		lanes[lane] = laneWork{p: e, count: len(perLane[lane])}
	}
	jOf := func(lane, item int) int { return perLane[lane][item].k }
	pOf := func(lane, item int) int { return perLane[lane][item].pEnc }
	return newLeafRunner(&nest.Ops, lanes, jOf, pOf)
}

// childProg is the child-kernel program of one warp: each lane owns one
// work item; with a Nest, lanes then reach their own launch site.
type childProg struct {
	app *App
	p   int
	// item per lane (-1 = inactive lane beyond Threads)
	items []int

	phase     int
	own       *leafRunner
	candLanes []int
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
	for {
		switch cp.phase {
		case chOwn:
			if cp.own.next(in) {
				return true
			}
			// Drop exhausted runners: a warp parked at the sync waiting
			// for grandchildren must not keep their lane state alive.
			cp.own = nil
			if app.Nest == nil {
				cp.phase = chDone
				continue
			}
			cp.phase = chLaunch
		case chLaunch:
			in.Kind = kernel.InstrLaunch
			cp.candLanes = cp.candLanes[:0]
			for lane, j := range cp.items {
				if j < 0 {
					continue
				}
				sub := app.Nest.SubItems(cp.p, j)
				if sub <= 0 {
					continue
				}
				in.Candidates = append(in.Candidates, kernel.LaunchCandidate{
					Lane:     lane,
					Workload: sub,
					Def:      grandchildDef(app, cp.p, j),
				})
				cp.candLanes = append(cp.candLanes, lane)
			}
			cp.phase = chAfterLaunch
			return true
		case chAfterLaunch:
			acc := acceptWalk{lanes: cp.candLanes, accepted: x.Accepted}
			nest := app.Nest
			lanes := make([]laneWork, len(cp.items))
			encs := make([]int, len(cp.items))
			for lane, j := range cp.items {
				if j < 0 || acc.has(lane) {
					continue
				}
				sub := nest.SubItems(cp.p, j)
				if sub <= 0 {
					continue
				}
				lanes[lane] = laneWork{p: cp.p, count: sub}
				encs[lane] = nest.Encode(cp.p, j)
			}
			pOf := func(lane, item int) int { return encs[lane] }
			cp.nested = newLeafRunner(&nest.Ops, lanes, selfItem, pOf)
			cp.phase = chNested
		case chNested:
			if cp.nested.next(in) {
				return true
			}
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

// grandchildProg runs nested items of one (p, j) with no further nesting.
type grandchildProg struct{ r *leafRunner }

func (gp *grandchildProg) Next(x *kernel.Exec, in *kernel.Instr) bool { return gp.r.next(in) }

// ParentDef builds the host-launched parent kernel of an App.
func ParentDef(app *App) (*kernel.Def, error) {
	if err := app.Normalize(); err != nil {
		return nil, err
	}
	parents := app.ParentThreads()
	return &kernel.Def{
		Name:          app.Name + "-parent",
		GridCTAs:      kernel.GridFor(parents, app.ParentCTASize),
		CTAThreads:    app.ParentCTASize,
		Threads:       parents,
		RegsPerThread: app.RegsParent,
		NewProgram: func(cta, warp int) kernel.Program {
			base := cta*app.ParentCTASize + warp*32
			n := parents - base
			if n > 32 {
				n = 32
			}
			ps := make([]int, n)
			for i := range ps {
				ps[i] = base + i
			}
			return &parentProg{app: app, ps: ps}
		},
	}, nil
}

// childDef builds the child kernel launched by parent thread p.
func childDef(app *App, p int) *kernel.Def {
	items := app.Items(p)
	return &kernel.Def{
		Name:          app.childName,
		GridCTAs:      kernel.GridFor(items, app.ChildCTASize),
		CTAThreads:    app.ChildCTASize,
		Threads:       items,
		RegsPerThread: app.RegsChild,
		NewProgram: func(cta, warp int) kernel.Program {
			base := cta*app.ChildCTASize + warp*32
			lanes := items - base
			if lanes > 32 {
				lanes = 32
			}
			laneItems := make([]int, lanes)
			lw := make([]laneWork, lanes)
			for i := range laneItems {
				laneItems[i] = base + i
				lw[i] = laneWork{p: p, count: 1}
			}
			jOf := func(lane, item int) int { return laneItems[lane] }
			return &childProg{
				app:   app,
				p:     p,
				items: laneItems,
				own:   newLeafRunner(&app.Ops, lw, jOf, nil),
			}
		},
	}
}

// grandchildDef builds the nested kernel for item j of parent p.
func grandchildDef(app *App, p, j int) *kernel.Def {
	nest := app.Nest
	sub := nest.SubItems(p, j)
	enc := nest.Encode(p, j)
	return &kernel.Def{
		Name:          app.grandchildName,
		GridCTAs:      kernel.GridFor(sub, nest.CTASize),
		CTAThreads:    nest.CTASize,
		Threads:       sub,
		RegsPerThread: app.RegsChild,
		NewProgram: func(cta, warp int) kernel.Program {
			base := cta*nest.CTASize + warp*32
			lanes := sub - base
			if lanes > 32 {
				lanes = 32
			}
			ks := make([]int, lanes)
			lw := make([]laneWork, lanes)
			for i := range ks {
				ks[i] = base + i
				lw[i] = laneWork{p: enc, count: 1}
			}
			jOf := func(lane, item int) int { return ks[lane] }
			return &grandchildProg{r: newLeafRunner(&nest.Ops, lw, jOf, nil)}
		},
	}
}
