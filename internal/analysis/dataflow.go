package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intraprocedural dataflow engine every provenance
// analyzer (seedtaint, units, purity, skipsafe, clockstep) builds on:
// value-origin tracking over go/types. For an expression inside one
// function it answers "which leaf sources can flow into this value?" by
// chasing the local-variable definitions that reach the expression's
// program point (the reaching-definitions fixpoint in cfg.go)
// backwards, looking through parentheses, arithmetic, and type
// conversions. The engine is intraprocedural (calls are opaque leaves)
// and merges origins only where control flow merges: the set
// over-approximates the true origins, which is the safe direction for
// taint-style checks.

// OriginKind classifies the leaf sources a value can flow from.
type OriginKind uint8

const (
	// OriginLiteral: a basic literal or a named constant.
	OriginLiteral OriginKind = iota
	// OriginParam: a parameter (or receiver) of the enclosing function.
	OriginParam
	// OriginField: a struct field read (x.F).
	OriginField
	// OriginCall: the result of a function or method call. Calls are
	// leaves: the engine does not look through bodies.
	OriginCall
	// OriginGlobal: a package-level variable.
	OriginGlobal
	// OriginUnknown: anything the tracker cannot resolve (closure
	// captures, channel receives, map/slice elements of opaque shape,
	// exhausted caps, a function whose fixpoint ran out of budget).
	OriginUnknown
)

func (k OriginKind) String() string {
	switch k {
	case OriginLiteral:
		return "literal"
	case OriginParam:
		return "parameter"
	case OriginField:
		return "field"
	case OriginCall:
		return "call"
	case OriginGlobal:
		return "package-level variable"
	default:
		return "unknown value"
	}
}

// Origin is one leaf source of a value.
type Origin struct {
	Kind OriginKind
	// Expr is the leaf expression at the source (the literal, the
	// selector, the call).
	Expr ast.Expr
	// Obj is the named object behind the leaf when one exists: the
	// parameter or field or global *types.Var, the constant, or the
	// callee. Nil for unresolved leaves.
	Obj types.Object
}

// originDepthCap bounds assignment-chain recursion; originFanCap bounds
// the total origin set so pathological functions stay cheap.
const (
	originDepthCap = 32
	originFanCap   = 64
)

// funcFlow is the origin-query scope of one function body: its
// parameters plus the reaching-definition environments (cfg.go) that
// say which assignments reach each program point.
type funcFlow struct {
	info *types.Info
	// params marks parameters and receivers.
	params map[*types.Var]bool
	// body is the function body the CFG is built from (nil for the
	// package-level pseudo-scope, where no local definition reaches).
	body *ast.BlockStmt
	// solved/cfg/envIn are filled once by solve (cfg.go). cfg stays nil
	// when there is no body or the fixpoint ran out of budget.
	solved bool
	cfg    *funcCFG
	envIn  []originEnv
}

// newFuncFlow builds the query scope of fn, an *ast.FuncDecl or
// *ast.FuncLit; any other node (nil included) yields the package-level
// pseudo-scope for var initializers.
func newFuncFlow(info *types.Info, fn ast.Node) *funcFlow {
	f := &funcFlow{info: info, params: map[*types.Var]bool{}}
	switch n := fn.(type) {
	case *ast.FuncDecl:
		if n.Recv != nil {
			f.addParams(n.Recv)
		}
		f.addParams(n.Type.Params)
		f.body = n.Body
	case *ast.FuncLit:
		f.addParams(n.Type.Params)
		f.body = n.Body
	}
	return f
}

func (f *funcFlow) addParams(fields *ast.FieldList) {
	for _, field := range fields.List {
		for _, name := range field.Names {
			if v, ok := f.info.Defs[name].(*types.Var); ok {
				f.params[v] = true
			}
		}
	}
}

// lhsVar resolves an assignment target identifier to its variable.
func (f *funcFlow) lhsVar(id *ast.Ident) *types.Var {
	if v, ok := f.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := f.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// originsOf returns the leaf sources that can flow into e within this
// function, following only the definitions that reach e's program
// point. The set over-approximates the true origins. When the fixpoint
// ran out of budget the answer is the lone conservative OriginUnknown
// marker.
func (f *funcFlow) originsOf(e ast.Expr) []Origin {
	env, ok := f.envAt(e)
	if !ok {
		return []Origin{{Kind: OriginUnknown, Expr: e}}
	}
	var out []Origin
	f.trace(e, env, map[*types.Var]bool{}, 0, &out)
	return out
}

func (f *funcFlow) add(out *[]Origin, o Origin) {
	if len(*out) < originFanCap {
		*out = append(*out, o)
	}
}

// capStop records the conservative OriginUnknown marker when a cap is
// exhausted. Unlike add, it never drops the marker: when the origin set
// is already full it overwrites the final slot, so a capped trace can
// never read as fully sanctioned (that would be a false negative — the
// untraced remainder might be the unsanctioned part).
func (f *funcFlow) capStop(out *[]Origin, e ast.Expr) {
	if len(*out) >= originFanCap {
		(*out)[originFanCap-1] = Origin{Kind: OriginUnknown, Expr: e}
		return
	}
	*out = append(*out, Origin{Kind: OriginUnknown, Expr: e})
}

// arithmeticOps are the binary operators a value flows through
// unchanged in kind (the result is "made of" both operands).
var arithmeticOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true,
	token.QUO: true, token.REM: true,
	token.AND: true, token.OR: true, token.XOR: true, token.AND_NOT: true,
	token.SHL: true, token.SHR: true,
}

// trace walks e's structure toward leaves. env is the reaching-
// definition environment at e's program point.
func (f *funcFlow) trace(e ast.Expr, env originEnv, visiting map[*types.Var]bool, depth int, out *[]Origin) {
	if depth > originDepthCap || len(*out) >= originFanCap {
		f.capStop(out, e)
		return
	}
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.BasicLit:
		f.add(out, Origin{Kind: OriginLiteral, Expr: x})
	case *ast.Ident:
		f.traceIdent(x, env, visiting, depth, out)
	case *ast.SelectorExpr:
		f.traceSelector(x, out)
	case *ast.CallExpr:
		if tv, ok := f.info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			// Type conversion: the value flows through. This is what
			// lets the units analyzer see laundering through plain
			// integer intermediates.
			f.trace(x.Args[0], env, visiting, depth+1, out)
			return
		}
		f.add(out, Origin{Kind: OriginCall, Expr: x, Obj: calleeObject(f.info, x)})
	case *ast.BinaryExpr:
		if arithmeticOps[x.Op] {
			f.trace(x.X, env, visiting, depth+1, out)
			f.trace(x.Y, env, visiting, depth+1, out)
			return
		}
		f.add(out, Origin{Kind: OriginUnknown, Expr: x})
	case *ast.UnaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.XOR:
			f.trace(x.X, env, visiting, depth+1, out)
		case token.AND:
			// &x aliases x: the pointer carries its referent's origins
			// (what lets the purity analyzer see leaks and alias writes
			// through address-taken values).
			f.trace(x.X, env, visiting, depth+1, out)
		default:
			f.add(out, Origin{Kind: OriginUnknown, Expr: x})
		}
	case *ast.StarExpr:
		f.trace(x.X, env, visiting, depth+1, out)
	case *ast.IndexExpr:
		// The element of a collection inherits the collection's origins.
		f.trace(x.X, env, visiting, depth+1, out)
	default:
		f.add(out, Origin{Kind: OriginUnknown, Expr: e})
	}
}

func (f *funcFlow) traceIdent(id *ast.Ident, env originEnv, visiting map[*types.Var]bool, depth int, out *[]Origin) {
	obj := f.info.Uses[id]
	if obj == nil {
		obj = f.info.Defs[id]
	}
	switch obj := obj.(type) {
	case *types.Const:
		f.add(out, Origin{Kind: OriginLiteral, Expr: id, Obj: obj})
	case *types.Var:
		// The environment is consulted before the parameter set so a
		// reassigned parameter resolves to what actually reaches this
		// point, not its caller-supplied value.
		if defs, ok := env[obj]; ok {
			if visiting[obj] {
				// Assignment cycle (x = x + 1 chains): the other origins of
				// the cycle carry the information.
				return
			}
			visiting[obj] = true
			for _, rhs := range defs {
				if dID, isID := rhs.(*ast.Ident); isID && f.info.Defs[dID] == types.Object(obj) {
					// Self-marker from `var x T`: the zero value, an
					// anonymous literal.
					f.add(out, Origin{Kind: OriginLiteral, Expr: dID})
					continue
				}
				f.trace(rhs, env, visiting, depth+1, out)
			}
			delete(visiting, obj)
			return
		}
		switch {
		case f.params[obj]:
			f.add(out, Origin{Kind: OriginParam, Expr: id, Obj: obj})
		case isPackageLevel(obj):
			f.add(out, Origin{Kind: OriginGlobal, Expr: id, Obj: obj})
		default:
			f.add(out, Origin{Kind: OriginUnknown, Expr: id, Obj: obj})
		}
	default:
		f.add(out, Origin{Kind: OriginUnknown, Expr: id, Obj: obj})
	}
}

func (f *funcFlow) traceSelector(sel *ast.SelectorExpr, out *[]Origin) {
	if s, ok := f.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		f.add(out, Origin{Kind: OriginField, Expr: sel, Obj: s.Obj()})
		return
	}
	// Qualified identifier: pkg.Name.
	switch obj := f.info.Uses[sel.Sel].(type) {
	case *types.Const:
		f.add(out, Origin{Kind: OriginLiteral, Expr: sel, Obj: obj})
	case *types.Var:
		f.add(out, Origin{Kind: OriginGlobal, Expr: sel, Obj: obj})
	default:
		f.add(out, Origin{Kind: OriginUnknown, Expr: sel, Obj: obj})
	}
}

// flowCache builds funcFlow scopes lazily, one per enclosing function.
// Each Package owns one (Package.flows), shared by every analyzer that
// resolves origins in it.
type flowCache struct {
	info  *types.Info
	flows map[ast.Node]*funcFlow
	// pkgScope is the pseudo-scope of package-level var initializers.
	pkgScope *funcFlow
}

func newFlowCache(info *types.Info) *flowCache {
	return &flowCache{info: info, flows: map[ast.Node]*funcFlow{}, pkgScope: newFuncFlow(info, nil)}
}

// at returns the flow scope of the innermost enclosing function on the
// ancestor stack, or the package-level pseudo-scope outside any
// function.
func (c *flowCache) at(stack []ast.Node) *funcFlow {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fn := stack[i]
			f, ok := c.flows[fn]
			if !ok {
				f = newFuncFlow(c.info, fn)
				c.flows[fn] = f
			}
			return f
		}
	}
	return c.pkgScope
}
