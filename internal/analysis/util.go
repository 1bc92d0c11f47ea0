package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// walkStack traverses root in depth-first order, handing each node its
// ancestor stack (outermost first, excluding the node itself).
func walkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// calleeObject resolves the object a call expression invokes (function,
// method, func-typed variable, or builtin), or nil.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgCall reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// inColdContext reports whether the stack places a node on a cold path:
// inside a return statement or an argument of panic. Abort, error, and
// invariant reporting lives on such paths; per-cycle code does not.
func inColdContext(info *types.Info, stack []ast.Node) bool {
	for _, anc := range stack {
		switch a := anc.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if isBuiltin(info, a, "panic") {
				return true
			}
		}
	}
	return false
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements error (and is not the
// untyped nil).
func isErrorType(t types.Type) bool {
	if t == nil || types.Identical(t, types.Typ[types.UntypedNil]) {
		return false
	}
	return types.Implements(t, errorIface)
}

// exprText renders an expression as compact source text, for messages
// and textual guard matching.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[" + exprText(x.Index) + "]"
	case *ast.ParenExpr:
		return "(" + exprText(x.X) + ")"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = exprText(a)
		}
		return exprText(x.Fun) + "(" + strings.Join(args, ", ") + ")"
	case *ast.BasicLit:
		return x.Value
	case *ast.UnaryExpr:
		return x.Op.String() + exprText(x.X)
	case *ast.BinaryExpr:
		return exprText(x.X) + " " + x.Op.String() + " " + exprText(x.Y)
	default:
		return "<expr>"
	}
}
