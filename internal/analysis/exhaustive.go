package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ExhaustiveAnalyzer enforces enum exhaustiveness: a switch over an
// iota-style kind enum (instruction opcodes, fault kinds, abort
// reasons, trace event types) must either cover every declared member
// or carry a default clause — the project convention is a
// kernel.Invariantf panic default stamped with the caller's clock, so
// that adding a new enum member fails loudly at the first simulated
// occurrence instead of silently falling through.
//
// An enum, for this analyzer, is a defined (named) integer type with
// at least two same-typed constants declared in its package. Constants
// whose name marks them as sentinels (numKinds, maxOpcode,
// kindCount, ...) are not members.
func ExhaustiveAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "exhaustive",
		Doc:  "switches over kind enums must cover all members or carry a panic default",
		Run:  runExhaustive,
	}
}

// sentinelName reports whether a constant name marks an enum sentinel
// rather than a member (numKinds, maxOpcode, kindCount, ...).
func sentinelName(name string) bool {
	n := strings.ToLower(name)
	for _, pre := range []string{"num", "max", "min", "count", "sentinel"} {
		if strings.HasPrefix(n, pre) {
			return true
		}
	}
	for _, suf := range []string{"count", "sentinel"} {
		if strings.HasSuffix(n, suf) {
			return true
		}
	}
	return false
}

// enumMembers returns the declared constants of the named type, sorted
// by constant value, excluding sentinels. Members come from the type's
// own package scope, so switches over imported enums work too.
func enumMembers(named *types.Named) []*types.Const {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil // universe types (error, rune aliases) are not enums
	}
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) || sentinelName(c.Name()) {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return constant.Compare(out[i].Val(), token.LSS, out[j].Val())
	})
	return out
}

// enumType resolves e's type to a defined integer type, or nil.
func enumType(info *types.Info, e ast.Expr) *types.Named {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	return named
}

func runExhaustive(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
}

func checkSwitch(pass *Pass, sw *ast.SwitchStmt) {
	named := enumType(pass.Pkg.Info, sw.Tag)
	if named == nil {
		return
	}
	members := enumMembers(named)
	if len(members) < 2 {
		return
	}

	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default clause: the switch is total by construction
		}
		for _, e := range cc.List {
			tv, ok := pass.Pkg.Info.Types[e]
			if !ok || tv.Value == nil {
				continue
			}
			for _, m := range members {
				if constant.Compare(tv.Value, token.EQL, m.Val()) {
					covered[m.Name()] = true
				}
			}
		}
	}

	var missing []string
	for _, m := range members {
		if !covered[m.Name()] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return
	}

	typeName := named.Obj().Name()
	if named.Obj().Pkg() != pass.Pkg.Types {
		typeName = named.Obj().Pkg().Name() + "." + typeName
	}
	pass.Reportf(sw.Pos(),
		"switch over %s is not exhaustive: missing %s and no default; cover them or add a default that panics with kernel.Invariantf, stamped with the caller's clock (not 0)",
		typeName, strings.Join(missing, ", "))
}
