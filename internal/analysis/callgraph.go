package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the interprocedural layer purity, skipsafe, clockstep,
// and hotpath share: one bottom-up summary per function declaration
// (direct effects + static callee edges), stitched into one call graph
// per Run over every loaded package. A summary records the union of the
// effect kinds the purity, skipsafe, and clockstep contracts care
// about (hotpath uses only the edges and re-checks each reached body);
// each analyzer walks the graph from its own roots under its own trust
// predicate and reports what its contract forbids, naming the call
// chain that reaches each finding.
//
// The graph is deliberately over-approximate in the safe direction,
// capped so pathological graphs stay cheap, and opaque at boundaries it
// cannot see through:
//
//   - dynamic dispatch (interface methods, func-typed values and
//     fields) is an opaque boundary assumed to honor the contract of
//     its declaration site — the callee cannot be resolved statically
//     (hotpath asks for a //spawnvet:hotpath marker on such callees);
//   - out-of-module callees carry no summary; they are classified by
//     the external-call tables (ambient I/O packages, PureFuncs)
//     instead of traversed;
//   - exceeding the caps degrades to an explicit "unverifiable"
//     diagnostic, never to silent trust.
const (
	// callGraphDepthCap bounds root-to-leaf chain length during
	// traversal; deeper chains report as unverifiable.
	callGraphDepthCap = 64
	// callGraphFanCap bounds the static callee edges recorded per
	// function; a function exceeding it is summarized as unverifiable.
	callGraphFanCap = 128
)

// effectKind classifies one direct effect recorded in a summary.
type effectKind uint8

const (
	// effectGlobalWrite: an assignment whose target is (or aliases) a
	// package-level variable.
	effectGlobalWrite effectKind = iota
	// effectAmbientIO: a call into the ambient-I/O surface of the
	// standard library (os, net, wall clock, global rand, console fmt).
	effectAmbientIO
	// effectLeak: a package-level write whose value retains a pointer
	// that flowed in through a parameter — caller memory escaping into
	// state that outlives the call. It is a global write too.
	effectLeak
	// effectStateWrite: a write through a pointer-shaped parameter or
	// receiver — caller-visible mutation (skipsafe only, which is
	// stricter than purity: even receiver state must stay frozen while
	// the engine fast-forwards).
	effectStateWrite
	// effectSpawn / effectSend: goroutine launch and channel send —
	// externally observable scheduling effects (skipsafe only).
	effectSpawn
	effectSend
)

// effect is one direct effect found in a function body.
type effect struct {
	kind effectKind
	pos  token.Pos
	// what names the offender: the written variable, the ambient callee,
	// the mutated target.
	what string
	// param names the retained pointer parameter of an effectLeak.
	param string
}

// funcSummary is the bottom-up summary of one function declaration.
type funcSummary struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	// effects are the function's direct effects, in source order.
	effects []effect
	// callees are the module-resolvable static call edges, deduplicated
	// in first-call order; calleePos holds the first call site of each.
	callees   []*types.Func
	calleePos map[*types.Func]token.Pos
	// overflow marks callee fan-cap exhaustion: the summary is
	// incomplete and the function must report as unverifiable.
	overflow bool
}

// summarize records one function declaration's direct effects and
// static call edges. Effects inside nested function literals are
// attributed to the enclosing declaration (over-approximation: the
// literal may run whenever the function does).
func summarize(pkg *Package, fd *ast.FuncDecl, obj *types.Func) *funcSummary {
	s := &funcSummary{obj: obj, decl: fd, pkg: pkg, calleePos: map[*types.Func]token.Pos{}}
	walkStack(fd, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			s.recordCall(n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				}
				s.recordWrite(stack, lhs, rhs)
			}
		case *ast.IncDecStmt:
			s.recordWrite(stack, n.X, nil)
		case *ast.GoStmt:
			s.effects = append(s.effects, effect{kind: effectSpawn, pos: n.Pos(), what: "goroutine spawn"})
		case *ast.SendStmt:
			s.effects = append(s.effects, effect{kind: effectSend, pos: n.Pos(), what: "channel send"})
		}
	})
	return s
}

// recordCall classifies one call site: pure-registry skip, ambient
// effect, or static call-graph edge. Builtins, conversions, func-typed
// values, and interface methods are opaque (see the file comment).
func (s *funcSummary) recordCall(call *ast.CallExpr) {
	fn, ok := calleeObject(s.pkg.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || PureFuncs[fn.FullName()] {
		return
	}
	if ambientCall(fn) {
		s.effects = append(s.effects, effect{kind: effectAmbientIO, pos: call.Pos(), what: fn.FullName()})
		return
	}
	s.addCallee(fn, call.Pos())
}

// recordWrite classifies one assignment target. A package-level target
// is a global write, or a leak when the value retains pointer-shaped
// parameter memory. An indirect write through a reference-shaped local
// is a global write when the local's origins include package-level
// state, else a caller-visible state write when they include a
// pointer-shaped parameter. Frame-local scratch is no effect.
func (s *funcSummary) recordWrite(stack []ast.Node, lhs, rhs ast.Expr) {
	base, hadStar, wrapped := writeBase(lhs)
	if base == nil || base.Name == "_" {
		return
	}
	v, ok := objOf(s.pkg.Info, base).(*types.Var)
	if !ok || v.IsField() {
		return
	}
	flows := s.pkg.flows()
	if isPackageLevel(v) {
		eff := effect{kind: effectGlobalWrite, pos: lhs.Pos(), what: "package-level variable " + v.Name()}
		if p := leakedParam(flows.at(stack), rhs); p != nil {
			eff.kind, eff.param = effectLeak, p.Name()
		}
		s.effects = append(s.effects, eff)
		return
	}
	if !wrapped || (!hadStar && !refShaped(v.Type())) {
		// Writing a local itself, or an element of a local value copy,
		// stays inside the frame.
		return
	}
	var stateWrite *effect
	for _, o := range flows.at(stack).originsOf(base) {
		switch o.Kind {
		case OriginGlobal:
			alias := exprText(o.Expr)
			if o.Obj != nil {
				alias = o.Obj.Name()
			}
			s.effects = append(s.effects, effect{kind: effectGlobalWrite, pos: lhs.Pos(),
				what: "package-level state through " + base.Name + " (aliasing " + alias + ")"})
			return
		case OriginParam:
			if p, ok := o.Obj.(*types.Var); ok && refShaped(p.Type()) && stateWrite == nil {
				stateWrite = &effect{kind: effectStateWrite, pos: lhs.Pos(),
					what: exprText(lhs) + " (caller-visible through " + p.Name() + ")"}
			}
		default:
			// Literal/call/unknown-origined bases stay frame-local.
		}
	}
	if stateWrite != nil {
		s.effects = append(s.effects, *stateWrite)
	}
}

// leakedParam returns the pointer-shaped parameter whose memory rhs
// retains, or nil.
func leakedParam(flow *funcFlow, rhs ast.Expr) *types.Var {
	if rhs == nil {
		return nil
	}
	for _, o := range flow.originsOf(rhs) {
		if o.Kind != OriginParam || o.Obj == nil {
			continue
		}
		if p, ok := o.Obj.(*types.Var); ok && refShaped(p.Type()) {
			return p
		}
	}
	return nil
}

// isPackageLevel reports whether v is a package-level variable.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// refShaped reports whether values of t share memory with their source
// (writes through them escape the copy).
func refShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// writeBase unwraps an assignment target to its base identifier.
// hadStar reports an explicit pointer dereference on the path; wrapped
// reports any indirection at all (selector, index, or star) — false
// means the identifier itself is the target.
func writeBase(e ast.Expr) (base *ast.Ident, hadStar, wrapped bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e, hadStar, wrapped = x.X, true, true
		case *ast.IndexExpr:
			e, wrapped = x.X, true
		case *ast.SelectorExpr:
			e, wrapped = x.X, true
		case *ast.Ident:
			return x, hadStar, wrapped
		default:
			return nil, hadStar, wrapped
		}
	}
}

// objOf resolves an identifier to its object (use or definition).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// addCallee records one static call edge, deduplicated, fan-capped.
func (s *funcSummary) addCallee(fn *types.Func, pos token.Pos) {
	if s.overflow {
		return
	}
	if _, seen := s.calleePos[fn]; seen {
		return
	}
	if len(s.callees) >= callGraphFanCap {
		s.overflow = true
		return
	}
	s.calleePos[fn] = pos
	s.callees = append(s.callees, fn)
}

// displayName renders a function for call-chain diagnostics:
// pkg.Name for functions, pkg.(Recv).Name for methods.
func (s *funcSummary) displayName() string {
	name := s.obj.Name()
	pkg := ""
	if s.obj.Pkg() != nil {
		pkg = s.obj.Pkg().Name() + "."
	}
	if s.decl.Recv != nil && len(s.decl.Recv.List) > 0 {
		if rt := recvTypeName(s.decl); rt != "" {
			return pkg + "(" + rt + ")." + name
		}
	}
	return pkg + name
}

// recvTypeName unwraps a method receiver to its named type.
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// callGraph holds the summaries of every function declaration of one
// Run, across all loaded packages.
type callGraph struct {
	sums map[*types.Func]*funcSummary
	// order preserves collection order (package load order, then file
	// and declaration order) so traversal and reporting stay
	// deterministic without sorting on synthesized names.
	order []*types.Func
}

func newCallGraph() *callGraph {
	return &callGraph{sums: map[*types.Func]*funcSummary{}}
}

// buildCallGraph summarizes every function declaration of pkgs.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := newCallGraph()
	for _, pkg := range pkgs {
		forEachFunc(pkg, func(fd *ast.FuncDecl, obj *types.Func) {
			if _, dup := g.sums[obj]; !dup {
				g.sums[obj] = summarize(pkg, fd, obj)
				g.order = append(g.order, obj)
			}
		})
	}
	return g
}

// forEachFunc visits the package's function declarations that have a
// body, in file and declaration order.
func forEachFunc(pkg *Package, visit func(fd *ast.FuncDecl, obj *types.Func)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				visit(fd, obj)
			}
		}
	}
}

// roots returns the summarized functions matching isRoot, in collection
// order.
func (g *callGraph) roots(isRoot func(*funcSummary) bool) []*types.Func {
	var out []*types.Func
	for _, fn := range g.order {
		if isRoot(g.sums[fn]) {
			out = append(out, fn)
		}
	}
	return out
}

// runRoot reports whether a summary is the run root every call-graph
// analyzer starts from: the method Run on a receiver type named GPU.
func runRoot(s *funcSummary) bool {
	return s.decl.Recv != nil && s.obj.Name() == "Run" && recvTypeName(s.decl) == "GPU"
}

// lookup resolves a callee to its summary, normalizing instantiated
// generics back to their declared origin. Nil means out-of-module (or
// otherwise body-less): the caller applies its opaque-call fallback.
func (g *callGraph) lookup(fn *types.Func) *funcSummary {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return g.sums[fn]
}

// chainVisit is one step of a traversal from a root.
type chainVisit struct {
	fn     *types.Func
	parent *types.Func
	depth  int
}

// walkFrom breadth-first-traverses the graph from the roots, invoking
// visit exactly once per reachable summarized function with the chain
// that first reached it. Functions the analyzer's trusted predicate
// accepts (nil trusts nothing) stop the walk: visit is not called for
// them and their callees are not enqueued. When a chain would exceed
// callGraphDepthCap, deep is called with the truncation point and the
// walk stops descending there.
func (g *callGraph) walkFrom(roots []*types.Func, trusted func(*funcSummary) bool,
	visit func(sum *funcSummary, chain []string),
	deep func(sum *funcSummary, calleePos token.Pos, chain []string)) {

	parent := map[*types.Func]*types.Func{}
	seen := map[*types.Func]bool{}
	var queue []chainVisit
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			queue = append(queue, chainVisit{fn: r, depth: 0})
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		sum := g.lookup(v.fn)
		if sum == nil {
			continue
		}
		parent[v.fn] = v.parent
		if trusted != nil && trusted(sum) {
			continue
		}
		visit(sum, g.chain(parent, v.fn))
		if v.depth >= callGraphDepthCap {
			if len(sum.callees) > 0 {
				deep(sum, sum.calleePos[sum.callees[0]], g.chain(parent, v.fn))
			}
			continue
		}
		for _, c := range sum.callees {
			cc := c
			if o := cc.Origin(); o != nil {
				cc = o
			}
			if seen[cc] {
				continue
			}
			seen[cc] = true
			queue = append(queue, chainVisit{fn: cc, parent: v.fn, depth: v.depth + 1})
		}
	}
}

// chain renders the root-to-fn call chain of the first discovery.
func (g *callGraph) chain(parent map[*types.Func]*types.Func, fn *types.Func) []string {
	var rev []string
	for cur := fn; cur != nil; cur = parent[cur] {
		if s := g.lookup(cur); s != nil {
			rev = append(rev, s.displayName())
		} else {
			rev = append(rev, cur.Name())
		}
		if _, ok := parent[cur]; !ok {
			break
		}
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// chainText joins a chain for diagnostics.
func chainText(chain []string) string {
	return strings.Join(chain, " → ")
}
