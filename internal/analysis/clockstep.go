package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// ClockStepAnalyzer certifies the engine-clock contract the event-wheel
// rewrite (ROADMAP item 1) depends on: simulated time has exactly one
// source — the GPU's clock — and it only moves forward. Four rules,
// checked with the flow-sensitive dataflow layer (cfg.go):
//
//  1. Every store to Cycle-typed state reachable from the run root
//     (the method Run on a receiver type named GPU) must trace to a
//     clock-bearing source: a parameter (the threaded `now`), a field
//     read (g.clock and cycle-stamped state), a call result (sanctioned
//     boundary, mirroring the units analyzer), a package-level
//     variable, or a named constant. An all-zero-literal store is a
//     reset and passes. Wall-clock entropy (time.Now and friends)
//     laundered into simulation time is flagged outright.
//  2. The clock field itself (a Cycle-typed field named "clock" on a
//     struct named GPU) may only advance monotonically, everywhere:
//     clock = <clock-derived> + <non-negative constant>, clock =
//     <clock-derived>, clock++ / clock += <non-negative constant>, or
//     clock = v under a dominating branch fact proving v > now or
//     v >= now (the fast-forward skip). Anything else is a raw store
//     that could move time backwards.
//  3. A literal passed as a Cycle-typed parameter named "now" or
//     "cycle" of a run-reachable call is a fabricated timestamp
//     (Invariantf(0, ...) was the canonical offender): thread the
//     caller's clock through instead.
//  4. A Cycle comparison inside a loop whose operand is a clock
//     snapshot captured before the loop, while the loop advances the
//     clock, compares against stale time (the back-edge invalidates
//     the local).
//
// Rules 1, 3, and 4 are gated on reachability from the run root so cold
// construction/validation code stays free to stamp zeros; rule 2 holds
// unconditionally — a backwards clock is never right. Escape hatch:
// //spawnvet:allow clockstep <justification>.
func ClockStepAnalyzer() *Analyzer {
	st := &clockstepState{}
	return &Analyzer{
		Name:      "clockstep",
		Doc:       "Cycle-typed state must derive from the engine clock, and the clock itself may only advance",
		AppliesTo: pathWithin("internal/sim"),
		Run:       st.check,
		Finish:    st.finish,
		Reset:     func() { st.deferred = map[*types.Func][]clockDeferred{} },
	}
}

// clockDeferred is one rule-1/3/4 finding held back until reachability
// from the run root is known; text receives the discovery call chain.
type clockDeferred struct {
	pos  token.Pos
	text func(chain string) string
}

type clockstepState struct {
	deferred map[*types.Func][]clockDeferred
}

// isCycleType reports whether t is (an alias-free view of) a named type
// called Cycle — kernel.Cycle in the real tree, any local Cycle in
// fixtures.
func isCycleType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() != nil && n.Obj().Name() == "Cycle"
}

// clockFieldSel resolves lhs to the engine-clock field: a Cycle-typed
// field named "clock" selected on a value of a struct type named GPU.
// Returns the field object, or nil.
func clockFieldSel(info *types.Info, lhs ast.Expr) types.Object {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "clock" {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	if !isCycleType(s.Obj().Type()) {
		return nil
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok && n.Obj().Name() == "GPU" {
		return s.Obj()
	}
	return nil
}

// clockDerived reports whether an origin is the simulation clock: a
// read of a field named "clock", or a Cycle-typed parameter (the
// threaded now).
func clockDerived(o Origin) bool {
	switch o.Kind {
	case OriginField:
		return o.Obj != nil && o.Obj.Name() == "clock"
	case OriginParam:
		return o.Obj != nil && isCycleType(o.Obj.Type())
	default:
		return false
	}
}

// clockDerivedExpr reports whether every origin of e is clock-derived.
func clockDerivedExpr(flow *funcFlow, e ast.Expr) bool {
	origins := flow.originsOf(e)
	if len(origins) == 0 {
		return false
	}
	for _, o := range origins {
		if !clockDerived(o) {
			return false
		}
	}
	return true
}

// nonNegConst reports whether e is a compile-time constant >= 0.
func nonNegConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	if tv.Value.Kind() != constant.Int {
		return false
	}
	return constant.Sign(tv.Value) >= 0
}

// zeroLiteralOrigin reports whether o is an anonymous zero: a literal 0
// or the zero value of a `var` declaration without initializer.
func zeroLiteralOrigin(info *types.Info, o Origin) bool {
	if o.Kind != OriginLiteral || o.Obj != nil {
		return false
	}
	switch e := o.Expr.(type) {
	case *ast.Ident:
		// The self-marker the flow-sensitive layer emits for `var x T`.
		return true
	case *ast.BasicLit:
		tv, ok := info.Types[e]
		return ok && tv.Value != nil && tv.Value.Kind() == constant.Int && constant.Sign(tv.Value) == 0
	}
	return false
}

// check runs per package: it reports rule-2 violations immediately and
// defers rule-1/3/4 findings until finish gates them on
// run-reachability.
func (st *clockstepState) check(pass *Pass) {
	info := pass.Pkg.Info
	flows := pass.Pkg.flows()
	forEachFunc(pass.Pkg, func(fd *ast.FuncDecl, obj *types.Func) {
		walkStack(fd, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn, ok := calleeObject(info, n).(*types.Func); ok {
					st.checkTimestampArgs(info, flows, stack, obj, n, fn)
				}
			case *ast.AssignStmt:
				st.checkAssign(pass, info, flows, stack, obj, n)
			case *ast.IncDecStmt:
				if field := clockFieldSel(info, n.X); field != nil && n.Tok == token.DEC {
					pass.Reportf(n.Pos(), "engine clock %s is decremented; simulated time may only advance", exprText(n.X))
				}
			case *ast.BinaryExpr:
				st.checkStaleComparison(info, flows, stack, obj, n)
			}
		})
	})
}

func (st *clockstepState) checkAssign(pass *Pass, info *types.Info, flows *flowCache, stack []ast.Node, obj *types.Func, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		switch {
		case len(as.Lhs) == len(as.Rhs):
			rhs = as.Rhs[i]
		case len(as.Rhs) == 1:
			rhs = as.Rhs[0]
		}
		if clockFieldSel(info, lhs) != nil {
			st.checkClockStore(pass, info, flows, stack, as, lhs, rhs)
			continue
		}
		st.checkCycleStore(info, flows, stack, obj, as, lhs, rhs)
	}
}

// checkClockStore enforces rule 2 on one store to the engine clock.
func (st *clockstepState) checkClockStore(pass *Pass, info *types.Info, flows *flowCache, stack []ast.Node, as *ast.AssignStmt, lhs, rhs ast.Expr) {
	if rhs == nil {
		return
	}
	flow := flows.at(stack)
	switch as.Tok {
	case token.ADD_ASSIGN:
		if nonNegConst(info, rhs) || clockDerivedExpr(flow, rhs) {
			return
		}
	case token.ASSIGN:
		if st.monotoneClockRHS(info, flow, rhs) {
			return
		}
	default:
		// Any other compound store (-=, <<=, ...) falls through to the
		// diagnostic below.
	}
	pass.Reportf(lhs.Pos(),
		"raw store to the engine clock %s cannot be proven monotone; advance it as clock+delta, from a now/cycle value, or under a dominating guard proving the new value >= the clock",
		exprText(lhs))
}

// monotoneClockRHS proves one clock store non-decreasing:
// <clock-derived> + <non-negative const>, a pure clock-derived value,
// or an identifier pinned > / >= a clock-derived value by a dominating
// branch (the fast-forward skip shape: if next <= now {...} else
// { clock = next }).
func (st *clockstepState) monotoneClockRHS(info *types.Info, flow *funcFlow, rhs ast.Expr) bool {
	rhs = ast.Unparen(rhs)
	if bin, ok := rhs.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		if nonNegConst(info, bin.Y) && clockDerivedExpr(flow, bin.X) {
			return true
		}
		if nonNegConst(info, bin.X) && clockDerivedExpr(flow, bin.Y) {
			return true
		}
	}
	if clockDerivedExpr(flow, rhs) {
		return true
	}
	id, ok := rhs.(*ast.Ident)
	if !ok {
		return false
	}
	rv, ok := objOf(info, id).(*types.Var)
	if !ok {
		return false
	}
	for _, fact := range flow.factsFor(rhs) {
		if st.factProvesAtLeastClock(info, flow, fact, rv) {
			return true
		}
	}
	return false
}

// factProvesAtLeastClock reports whether one dominating branch fact
// pins variable rv to be > or >= a clock-derived value.
func (st *clockstepState) factProvesAtLeastClock(info *types.Info, flow *funcFlow, fact branchFact, rv *types.Var) bool {
	cond, ok := ast.Unparen(fact.cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	op := cond.Op
	if !fact.when {
		// The false edge establishes the negation.
		switch op {
		case token.LSS:
			op = token.GEQ
		case token.LEQ:
			op = token.GTR
		case token.GTR:
			op = token.LEQ
		case token.GEQ:
			op = token.LSS
		default:
			return false
		}
	}
	isRV := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && objOf(info, id) == types.Object(rv)
	}
	switch op {
	case token.GTR, token.GEQ: // x > clock / x >= clock
		return isRV(cond.X) && clockDerivedExpr(flow, cond.Y)
	case token.LSS, token.LEQ: // clock < x / clock <= x
		return isRV(cond.Y) && clockDerivedExpr(flow, cond.X)
	default:
		return false
	}
}

// checkCycleStore enforces rule 1 on a store to Cycle-typed state that
// is not the clock field itself. Only wrapped targets (fields, slice
// and map elements) are audited: plain locals are scratch.
func (st *clockstepState) checkCycleStore(info *types.Info, flows *flowCache, stack []ast.Node, obj *types.Func, as *ast.AssignStmt, lhs, rhs ast.Expr) {
	if as.Tok != token.ASSIGN || rhs == nil {
		// Compound assignments read the target first: the old cycle value
		// is itself a clock-bearing origin.
		return
	}
	tv, ok := info.Types[lhs]
	if !ok || !isCycleType(tv.Type) {
		return
	}
	if _, _, wrapped := writeBase(lhs); !wrapped {
		return
	}
	flow := flows.at(stack)
	origins := flow.originsOf(rhs)
	target := exprText(lhs)
	for _, o := range origins {
		if ambientEntropy(o) {
			what := exprText(o.Expr)
			st.defer_(obj, lhs.Pos(), func(chain string) string {
				return "wall-clock entropy from " + what + " flows into Cycle-typed " + target +
					" (call chain: " + chain + "); simulation time must derive from the engine clock, never the host clock"
			})
			return
		}
	}
	hasClockBearing := false
	allZero := len(origins) > 0
	for _, o := range origins {
		switch o.Kind {
		case OriginParam, OriginField, OriginCall, OriginGlobal:
			hasClockBearing = true
			allZero = false
		case OriginLiteral:
			if o.Obj != nil {
				// Named constant: a declared, reviewable epoch.
				hasClockBearing = true
				allZero = false
			} else if !zeroLiteralOrigin(info, o) {
				allZero = false
			}
		default:
			allZero = false
		}
	}
	if hasClockBearing || allZero {
		return
	}
	st.defer_(obj, lhs.Pos(), func(chain string) string {
		return "store to Cycle-typed " + target + " cannot be traced to a clock-bearing source (call chain: " + chain +
			"); derive it from a now/cycle parameter, the clock, or a boundary call — zero resets are exempt"
	})
}

// checkTimestampArgs enforces rule 3: a literal passed where the callee
// declares a Cycle-typed parameter named now or cycle.
func (st *clockstepState) checkTimestampArgs(info *types.Info, flows *flowCache, stack []ast.Node, obj *types.Func, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	flow := flows.at(stack)
	params := sig.Params()
	for i := 0; i < params.Len() && i < len(call.Args); i++ {
		p := params.At(i)
		if sig.Variadic() && i == params.Len()-1 {
			break
		}
		if p.Name() != "now" && p.Name() != "cycle" {
			continue
		}
		if !isCycleType(p.Type()) {
			continue
		}
		arg := call.Args[i]
		origins := flow.originsOf(arg)
		if len(origins) == 0 {
			continue
		}
		fabricated := true
		for _, o := range origins {
			if o.Kind != OriginLiteral || o.Obj != nil {
				fabricated = false
				break
			}
		}
		if !fabricated {
			continue
		}
		argText, pName, callee := exprText(arg), p.Name(), fn.Name()
		st.defer_(obj, arg.Pos(), func(chain string) string {
			return "fabricated timestamp: literal " + argText + " passed as the " + pName + " parameter of " + callee +
				" (call chain: " + chain + "); thread the caller's clock through instead of stamping a constant"
		})
	}
}

// checkStaleComparison enforces rule 4: a Cycle comparison inside a
// loop against a clock snapshot captured before the loop, while the
// loop advances the clock.
func (st *clockstepState) checkStaleComparison(info *types.Info, flows *flowCache, stack []ast.Node, obj *types.Func, bin *ast.BinaryExpr) {
	switch bin.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return
	}
	if tv, ok := info.Types[bin.X]; !ok || !isCycleType(tv.Type) {
		return
	}
	// Innermost enclosing loop, without crossing into an enclosing
	// function literal's scope.
	var loop ast.Node
	for i := len(stack) - 1; i >= 0 && loop == nil; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loop = stack[i]
		case *ast.FuncLit:
			return
		}
	}
	if loop == nil {
		return
	}
	flow := flows.at(stack)
	for _, operand := range []ast.Expr{bin.X, bin.Y} {
		for _, o := range flow.originsOf(operand) {
			if o.Kind != OriginField || o.Obj == nil || o.Obj.Name() != "clock" {
				continue
			}
			if o.Expr.Pos() >= loop.Pos() {
				continue // snapshot refreshed inside the loop
			}
			if !writesField(info, loop, o.Obj) {
				continue // clock does not move during this loop
			}
			opText := exprText(operand)
			st.defer_(obj, operand.Pos(), func(chain string) string {
				return "comparison uses " + opText + ", a clock snapshot captured before the enclosing loop, but the loop advances the clock (call chain: " + chain +
					"); re-read the clock each iteration"
			})
			return
		}
	}
}

// writesField reports whether any assignment or inc/dec inside n
// targets the given field object.
func writesField(info *types.Info, n ast.Node, field types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		var targets []ast.Expr
		switch x := x.(type) {
		case *ast.AssignStmt:
			targets = x.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{x.X}
		default:
			return true
		}
		for _, t := range targets {
			if sel, ok := ast.Unparen(t).(*ast.SelectorExpr); ok {
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal && s.Obj() == field {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func (st *clockstepState) defer_(obj *types.Func, pos token.Pos, text func(chain string) string) {
	st.deferred[obj] = append(st.deferred[obj], clockDeferred{pos: pos, text: text})
}

// finish closes the call graph over the run root, trusting nothing,
// and emits the deferred rule-1/3/4 findings of every reachable
// function.
func (st *clockstepState) finish(pass *Pass) {
	if pass.Pkg == nil {
		return
	}
	g := pass.callGraph()
	g.walkFrom(g.roots(runRoot), nil,
		func(sum *funcSummary, chain []string) {
			for _, d := range st.deferred[sum.obj] {
				pass.Reportf(d.pos, "%s", d.text(chainText(chain)))
			}
		},
		func(sum *funcSummary, pos token.Pos, chain []string) {
			pass.Reportf(pos,
				"call chain from the run root exceeds the clockstep depth cap (%d) inside %s; deeper callees are unverified (chain: %s)",
				callGraphDepthCap, sum.displayName(), chainText(chain))
		})
}
