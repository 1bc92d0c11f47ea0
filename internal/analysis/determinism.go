package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// DeterminismAnalyzer enforces the simulator's replay contract: a
// (config, seed, plan) triple must reproduce bit-identical results, so
// nothing on the simulation or emission path may consult the
// process-global RNG or Go's randomized map iteration order. (The wall
// clock is purity's rule: every time.Now reachable from a run is an
// ambient-I/O effect there.)
//
// Rules, inside the deterministic packages (internal/sim/...,
// internal/harness, internal/trace, internal/metrics, internal/faults,
// internal/inputs, internal/store, the CLIs under cmd/, and the module
// root package):
//
//   - no package-global math/rand state (rand.Intn, rand.Seed, ...);
//     seeded generators via rand.New(rand.NewSource(seed)) are fine;
//   - no ranging over a map, except the canonical key-collection
//     prelude (append every key to a slice, sorted by the very next
//     statement) and keyless `for range m` counting loops. Everything
//     else either feeds Result/trace/CSV emission — where order is the
//     bug — or is one refactor away from doing so.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid global math/rand and order-dependent map iteration in deterministic packages",
		AppliesTo: pathWithinOrRoot(
			"internal/sim", "internal/harness", "internal/trace",
			"internal/metrics", "internal/faults", "internal/inputs",
			"internal/store", "cmd",
		),
		Run: runDeterminism,
	}
}

// randAllowed lists math/rand identifiers that do not touch the global
// generator: constructors and types for explicitly seeded streams.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
	"NewPCG": true, "NewChaCha8": true, "PCG": true, "ChaCha8": true,
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// Only package-level selectors (rand.Intn) touch the global
				// generator; methods on a seeded *rand.Rand are fine.
				x, ok := n.X.(*ast.Ident)
				if !ok {
					break
				}
				pkgName, ok := info.Uses[x].(*types.PkgName)
				if !ok {
					break
				}
				path := pkgName.Imported().Path()
				obj := info.Uses[n.Sel]
				if obj != nil && (path == "math/rand" || path == "math/rand/v2") &&
					!randAllowed[obj.Name()] {
					pass.Reportf(n.Pos(),
						"global math/rand state (rand.%s) breaks seeded reproducibility; use rand.New(rand.NewSource(seed))",
						obj.Name())
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n, stack)
			}
		})
	}
}

// checkMapRange flags nondeterministic map iteration; stack holds the
// loop's ancestors.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) {
	info := pass.Pkg.Info
	tv, ok := info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// `for range m` never observes the order.
	if rs.Key == nil && rs.Value == nil {
		return
	}
	if keys := keyCollectSlice(rs); keys != "" && sortsSlice(info, nextStmt(rs, stack), keys) {
		return
	}
	pass.Reportf(rs.Pos(),
		"range over map %s has nondeterministic iteration order; collect the keys, sort them, then iterate",
		exprText(rs.X))
}

// keyCollectSlice recognizes the canonical key-collection loop and
// returns the slice it appends to ("" otherwise):
//
//	for k := range m {
//		keys = append(keys, k)
//	}
func keyCollectSlice(rs *ast.RangeStmt) string {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" || rs.Value != nil || len(rs.Body.List) != 1 {
		return ""
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return ""
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return ""
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
		return ""
	}
	keys := exprText(asg.Lhs[0])
	last, ok := call.Args[len(call.Args)-1].(*ast.Ident)
	if !ok || last.Name != key.Name || exprText(call.Args[0]) != keys {
		return ""
	}
	return keys
}

// keySorts are the in-place sorts that make a collected key slice
// order-free.
var keySorts = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Slice": true, "sort.SliceStable": true,
	"slices.Sort": true, "slices.SortFunc": true,
}

// sortsSlice reports whether stmt sorts the slice named keys in place:
// the key-collection loop is exempt only when it is followed directly
// by its sort.
func sortsSlice(info *types.Info, stmt ast.Stmt, keys string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := calleeObject(info, call).(*types.Func)
	return ok && fn.Pkg() != nil && keySorts[fn.Pkg().Path()+"."+fn.Name()] &&
		exprText(call.Args[0]) == keys
}

// nextStmt returns the statement after s in the statement list of its
// parent (the last element of stack), or nil.
func nextStmt(s ast.Stmt, stack []ast.Node) ast.Stmt {
	var list []ast.Stmt
	switch p := stack[len(stack)-1].(type) {
	case *ast.BlockStmt:
		list = p.List
	case *ast.CaseClause:
		list = p.Body
	case *ast.CommClause:
		list = p.Body
	}
	if i := slices.Index(list, s); i >= 0 && i+1 < len(list) {
		return list[i+1]
	}
	return nil
}
