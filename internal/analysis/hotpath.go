package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPathAnalyzer polices the per-cycle call trees of the engine. It
// walks the shared module call graph (callgraph.go) from the run root,
// sim.(GPU).Run, plus every function marked //spawnvet:hotpath, and
// inside that hot set flags:
//
//   - fmt formatting calls (Sprintf and friends allocate and reflect);
//   - closure (func literal) allocations;
//   - map allocations (make(map...), map literals), new(...) and
//     composite-literal addresses (&T{...}): the engine recycles its
//     runtime objects through free lists, and only a pool's miss path
//     may allocate one, under an allow naming the pool;
//   - implicit interface conversions (boxing) at call argument
//     positions — the classic container/heap tax;
//   - calls through func-typed struct fields (observability and fault
//     hooks) without a `field != nil` guard fact (guards.go);
//   - calls into internal/profile that are not one of its nil-safe,
//     allocation-free accumulators (profileHotCalls): report assembly
//     and serialization belong after the run, never in the tick loop.
//
// Each finding names the call chain that makes its code hot. The graph
// sees only static calls, so the marker is needed exactly where the
// engine reaches per-cycle code through dynamic dispatch (an interface
// method, a func value); everything Run calls directly is hot without
// one.
//
// Code on cold sub-paths — arguments to panic, expressions inside
// return statements — is exempt: abort and invariant reporting may
// format freely. Everything else needs a //spawnvet:allow hotpath
// directive with a justification.
func HotPathAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "hotpath",
		Doc:    "flag allocations, formatting, boxing, and unguarded hook calls in per-cycle call trees",
		Finish: finishHotPath,
	}
}

// profilePkgSuffix identifies the cycle-attribution package in import
// paths (matched by suffix so the rule is module-name agnostic).
const profilePkgSuffix = "internal/profile"

// profileHotCalls are the internal/profile methods sanctioned on the
// per-cycle path: each is nil-receiver-safe and allocation-free (EndTick
// amortizes timeline growth). Everything else in the package — Report,
// New, the writers — is finalization-time API.
var profileHotCalls = map[string]bool{
	"Note": true, "EndTick": true, "SkipTo": true, "SampleDue": true,
	"KernelSite": true, "Finish": true, "Record": true,
}

// profileHotNames lists profileHotCalls, sorted, for the finding text.
var profileHotNames = func() string {
	names := make([]string, 0, len(profileHotCalls))
	for n := range profileHotCalls {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}()

// fmtFormatting lists the fmt functions that allocate on every call.
var fmtFormatting = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true, "Appendf": true,
}

// hotRoot reports whether a summary roots the hot set: the run root or
// a function carrying a valid //spawnvet:hotpath marker.
func hotRoot(s *funcSummary) bool {
	return runRoot(s) || s.pkg.hotPathMarked(s.decl)
}

// finishHotPath walks the call graph from the hot roots, trusting
// nothing, and checks the body of every function it reaches.
func finishHotPath(pass *Pass) {
	if pass.Pkg == nil {
		return
	}
	g := pass.callGraph()
	g.walkFrom(g.roots(hotRoot),
		func(sum *funcSummary, chain []string) {
			h := hotFunc{pass: pass, pkg: sum.pkg, chain: chainText(chain)}
			if sum.overflow {
				pass.Reportf(sum.decl.Name.Pos(),
					"%s has more than %d static callees; its hot callees are unverified (call chain: %s) — split it",
					sum.displayName(), callGraphFanCap, h.chain)
			}
			h.checkFunc(sum.decl)
		},
		func(sum *funcSummary, pos token.Pos, chain []string) {
			pass.Reportf(pos,
				"call chain from the hot-path roots exceeds the hotpath depth cap (%d) inside %s; deeper callees are unverified (chain: %s)",
				callGraphDepthCap, sum.displayName(), chainText(chain))
		})
}

// hotFunc checks one reached function: pkg is the package declaring it
// (its type information resolves the body), chain the rendered call
// chain that made it hot.
type hotFunc struct {
	pass  *Pass
	pkg   *Package
	chain string
}

// checkFunc flags the violation classes in fn's body, outside cold
// contexts.
func (h hotFunc) checkFunc(fn *ast.FuncDecl) {
	info := h.pkg.Info
	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !inColdContext(info, stack) {
				h.pass.Reportf(n.Pos(), "closure allocated in hot path (call chain: %s)", h.chain)
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND || inColdContext(info, stack) {
				return
			}
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				if tv, ok := info.Types[lit]; ok {
					h.pass.Reportf(n.Pos(), "&%s{...} allocation in hot path (call chain: %s)",
						types.TypeString(tv.Type, types.RelativeTo(h.pkg.Types)), h.chain)
				}
			}
		case *ast.CompositeLit:
			if inColdContext(info, stack) {
				return
			}
			if tv, ok := info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					h.pass.Reportf(n.Pos(), "map literal allocated in hot path (call chain: %s)", h.chain)
				}
			}
		case *ast.CallExpr:
			if inColdContext(info, stack) {
				return
			}
			h.checkCall(n, stack)
		}
	})
}

func (h hotFunc) checkCall(call *ast.CallExpr, stack []ast.Node) {
	info := h.pkg.Info

	if isBuiltin(info, call, "panic") {
		return // a taken panic is the cold path by definition
	}
	if isBuiltin(info, call, "new") {
		h.pass.Reportf(call.Pos(), "new(...) allocation in hot path (call chain: %s)", h.chain)
		return
	}
	if isBuiltin(info, call, "make") && len(call.Args) > 0 {
		if tv, ok := info.Types[call.Args[0]]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				h.pass.Reportf(call.Pos(), "make(map) allocation in hot path (call chain: %s)", h.chain)
			}
		}
		return
	}
	if obj := calleeObject(info, call); obj != nil {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
			if fn.Pkg().Path() == "fmt" && fmtFormatting[fn.Name()] {
				h.pass.Reportf(call.Pos(), "fmt.%s in hot path (call chain: %s); format on abort/error paths only", fn.Name(), h.chain)
				return
			}
			// Profile accounting: only the nil-safe accumulators may
			// appear in tick loops. Calls inside internal/profile itself
			// are exempt — its internal helpers are vetted where the walk
			// reaches them.
			if fn.Pkg().Path() != h.pkg.Types.Path() &&
				pathWithin(profilePkgSuffix)(fn.Pkg().Path()) && !profileHotCalls[fn.Name()] {
				h.pass.Reportf(call.Pos(),
					"profile.%s in hot path (call chain: %s); only nil-safe accumulators (%s) may run per cycle",
					fn.Name(), h.chain, profileHotNames)
				return
			}
		}
	}

	// Boxing: a concrete argument passed to an interface parameter.
	if tv, ok := info.Types[call.Fun]; ok && !tv.IsType() {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			h.checkBoxing(call, sig)
		}
	}

	// Unguarded hook: a call through a func-typed struct field.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if _, isFunc := s.Type().Underlying().(*types.Signature); isFunc {
				selText := exprText(sel)
				if !nilGuarded(info, call, selText, stack) {
					h.pass.Reportf(call.Pos(),
						"hook call %s(...) without a %s != nil guard in hot path (call chain: %s)",
						selText, selText, h.chain)
				}
			}
		}
	}
}

// checkBoxing flags concrete values converted to interface parameters.
func (h hotFunc) checkBoxing(call *ast.CallExpr, sig *types.Signature) {
	info := h.pkg.Info
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) ||
			types.Identical(at, types.Typ[types.UntypedNil]) || at == types.Typ[types.Invalid] {
			continue
		}
		h.pass.Reportf(arg.Pos(),
			"implicit conversion of %s to interface %s allocates (boxing) in hot path (call chain: %s)",
			types.TypeString(at, types.RelativeTo(h.pkg.Types)),
			types.TypeString(pt, types.RelativeTo(h.pkg.Types)),
			h.chain)
	}
}

// nilGuarded reports whether the hook call runs only when its selector
// is non-nil: one of the call's guard facts proves it, or an earlier
// conjunct of the boolean expression containing the call does
// (`f.hook != nil && f.hook(x)`).
func nilGuarded(info *types.Info, call *ast.CallExpr, selText string, stack []ast.Node) bool {
	for _, fact := range guardFacts(info, stack, call) {
		if provesNonNil(fact, selText) {
			return true
		}
	}
	var child ast.Node = call
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.BinaryExpr:
			if anc.Op == token.LAND && anc.Y == child && provesNonNil(guardFact{anc.X, true}, selText) {
				return true
			}
		case *ast.FuncLit:
			return false
		}
		child = stack[i]
	}
	return false
}

// provesNonNil reports whether a guard fact pins selText non-nil: a
// holding condition with a top-level && conjunct `sel != nil`, or a
// failing one with a top-level || disjunct `sel == nil`. Anything
// nested deeper (under !, inside ||) proves nothing.
func provesNonNil(fact guardFact, selText string) bool {
	join, cmp := token.LAND, token.NEQ
	if !fact.when {
		join, cmp = token.LOR, token.EQL
	}
	var proves func(e ast.Expr) bool
	proves = func(e ast.Expr) bool {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		switch {
		case !ok:
			return false
		case b.Op == join:
			return proves(b.X) || proves(b.Y)
		case b.Op == cmp:
			x, y := exprText(ast.Unparen(b.X)), exprText(ast.Unparen(b.Y))
			return x == selText && y == "nil" || y == selText && x == "nil"
		}
		return false
	}
	return proves(fact.cond)
}
