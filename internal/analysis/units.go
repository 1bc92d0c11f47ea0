package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnitsAnalyzer enforces the dimensional vocabulary of
// internal/sim/kernel (see units.go there and DESIGN.md §5): Cycle,
// Bytes, and ThreadCount values must not be combined or converted
// across dimensions. Go's type checker already rejects Cycle + Bytes;
// this analyzer closes the two holes the type system leaves open:
//
//   - unit*unit products: Cycle * Cycle is dimensionally cycles², and
//     almost always means a dimensionless scalar was converted into
//     the unit type at the call site. Scaling goes through the Times
//     methods (the one sanctioned site, self-suppressed in kernel).
//     Products with a constant operand (2 * overhead) are fine — the
//     constant is a scalar that the type checker merely spelled in the
//     unit type.
//   - cross-unit conversions, direct (Bytes(c) where c is a Cycle) or
//     laundered through a plain integer intermediate
//     (u := uint64(c); Bytes(u)) — the dataflow engine traces the
//     converted value back through locals, arithmetic, and
//     conversions. Call results are opaque boundaries and accepted:
//     re-entering from a uint64 serialization surface (trace events,
//     injector hooks) is the sanctioned pattern.
func UnitsAnalyzer() *Analyzer {
	return &Analyzer{
		Name:      "units",
		Doc:       "no mixed-dimension arithmetic or cross-unit conversion of Cycle/Bytes/ThreadCount",
		AppliesTo: pathWithin("internal/sim", "internal/config", "internal/core"),
		Run:       runUnits,
	}
}

// unitName resolves t to one of the kernel unit types, returning its
// name ("Cycle", "Bytes", "ThreadCount") or "".
func unitName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "/"+kernelImportSuffix) {
		return ""
	}
	switch obj.Name() {
	case "Cycle", "Bytes", "ThreadCount":
		return obj.Name()
	}
	return ""
}

func runUnits(pass *Pass) {
	flows := pass.Pkg.flows()
	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkUnitProduct(pass, n)
			case *ast.CallExpr:
				checkUnitConversion(pass, flows, n, stack)
			}
		})
	}
}

// checkUnitProduct flags unit*unit multiplication with two non-constant
// operands.
func checkUnitProduct(pass *Pass, b *ast.BinaryExpr) {
	if b.Op != token.MUL {
		return
	}
	info := pass.Pkg.Info
	xt, yt := info.Types[b.X], info.Types[b.Y]
	xu, yu := unitName(xt.Type), unitName(yt.Type)
	if xu == "" || yu == "" {
		return
	}
	if xt.Value != nil || yt.Value != nil {
		return // a constant operand is a dimensionless scalar in unit spelling
	}
	pass.Reportf(b.Pos(),
		"%s * %s multiplies two dimensioned values (%s² is not a unit); scale through the %s.Times method instead",
		exprText(b.X), exprText(b.Y), xu, xu)
}

// checkUnitConversion flags conversions that change a value's
// dimension, directly or laundered through a plain-integer
// intermediate.
func checkUnitConversion(pass *Pass, flows *flowCache, call *ast.CallExpr, stack []ast.Node) {
	info := pass.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst := unitName(tv.Type)
	if dst == "" {
		return
	}
	arg := call.Args[0]
	argTV := info.Types[arg]
	if argTV.Value != nil {
		return // converting a constant mints a new dimensioned value; fine
	}
	if src := unitName(argTV.Type); src != "" {
		if src != dst {
			pass.Reportf(call.Pos(),
				"conversion %s(%s) changes dimension: operand is a %s",
				dst, exprText(arg), src)
		}
		return
	}
	// Plain-integer operand: trace where the value came from. A leaf
	// that is statically a different unit means the conversion launders
	// a dimensioned value through a raw integer.
	for _, o := range flows.at(stack).originsOf(arg) {
		if o.Kind == OriginCall || o.Kind == OriginUnknown || o.Expr == nil {
			continue // opaque boundaries are the sanctioned re-entry path
		}
		if otv, ok := info.Types[o.Expr]; ok && otv.Value == nil {
			if src := unitName(otv.Type); src != "" && src != dst {
				pass.Reportf(call.Pos(),
					"conversion %s(%s) launders a %s (%s) through a plain integer; convert at the boundary only",
					dst, exprText(arg), src, exprText(o.Expr))
				return
			}
		}
	}
}
