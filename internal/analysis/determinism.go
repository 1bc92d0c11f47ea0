package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
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
//     prelude (append every key to a slice, then sort) and keyless
//     `for range m` counting loops. Everything else either feeds
//     Result/trace/CSV emission — where order is the bug — or is one
//     refactor away from doing so.
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
		ast.Inspect(f, func(n ast.Node) bool {
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
				checkMapRange(pass, n)
			}
			return true
		})
	}
}

// checkMapRange flags nondeterministic map iteration.
func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
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
	if isKeyCollectLoop(rs) {
		return
	}
	fix := buildSortedRangeFix(pass, rs)
	msg := fmt.Sprintf(
		"range over map %s has nondeterministic iteration order; collect the keys, sort them, then iterate",
		exprText(rs.X))
	if fix != nil {
		pass.ReportFix(rs.Pos(), fix, "%s", msg)
	} else {
		pass.Reportf(rs.Pos(), "%s", msg)
	}
}

// isKeyCollectLoop recognizes the canonical sort prelude, whose body
// is order-insensitive:
//
//	for k := range m {
//		keys = append(keys, k)
//	}
func isKeyCollectLoop(rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" || rs.Value != nil {
		return false
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if exprText(call.Args[0]) != exprText(asg.Lhs[0]) {
		return false
	}
	last, ok := call.Args[len(call.Args)-1].(*ast.Ident)
	return ok && last.Name == key.Name
}

// buildSortedRangeFix produces the mechanical sort-before-range rewrite
// when the loop is simple enough: the ranged expression has no side
// effects (ident/selector/index chain) and the key type is a basic
// ordered type. Returns nil when the site needs a human.
func buildSortedRangeFix(pass *Pass, rs *ast.RangeStmt) *TextEdit {
	info := pass.Pkg.Info
	switch ast.Unparen(rs.X).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
	default:
		return nil
	}
	mt, _ := info.Types[rs.X].Type.Underlying().(*types.Map)
	if mt == nil {
		return nil
	}
	basic, ok := mt.Key().Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString|types.IsFloat) == 0 {
		return nil
	}
	keyType := types.TypeString(mt.Key(), types.RelativeTo(pass.Pkg.Types))
	if strings.Contains(keyType, ".") || strings.Contains(keyType, "/") {
		// A named key type from another package would need an import.
		return nil
	}
	if rs.Tok.String() != ":=" && rs.Key != nil {
		// Assignment form (`for k = range m`) reuses outer variables;
		// leave it to a human.
		return nil
	}

	file := pass.Pkg.Fset.File(rs.Pos())
	src, ok := pass.Pkg.Src[file.Name()]
	if !ok {
		return nil
	}
	start := file.Offset(rs.Pos())
	end := file.Offset(rs.End())
	bodyStart := file.Offset(rs.Body.Lbrace) + 1
	bodyEnd := file.Offset(rs.Body.Rbrace)
	body := string(src[bodyStart:bodyEnd]) // includes trailing newline+indent

	indent := lineIndent(src, start)
	mapText := exprText(rs.X)

	keyName := "k"
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyName = id.Name
	}
	keysName := keyName + "s"
	if strings.Contains(body, keysName) || mapText == keysName {
		keysName = keyName + "Keys"
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s := make([]%s, 0, len(%s))\n", keysName, keyType, mapText)
	fmt.Fprintf(&b, "%sfor %s := range %s {\n", indent, keyName, mapText)
	fmt.Fprintf(&b, "%s\t%s = append(%s, %s)\n", indent, keysName, keysName, keyName)
	fmt.Fprintf(&b, "%s}\n", indent)
	fmt.Fprintf(&b, "%ssort.Slice(%s, func(i, j int) bool { return %s[i] < %s[j] })\n",
		indent, keysName, keysName, keysName)
	fmt.Fprintf(&b, "%sfor _, %s := range %s {", indent, keyName, keysName)
	if v, ok := rs.Value.(*ast.Ident); ok && v.Name != "_" {
		fmt.Fprintf(&b, "\n%s\t%s := %s[%s]", indent, v.Name, mapText, keyName)
		// Keep the original body's leading newline/indentation after the
		// injected value binding.
	}
	b.WriteString(body)
	b.WriteString("}")

	return &TextEdit{
		File:      file.Name(),
		Start:     start,
		End:       end,
		New:       b.String(),
		NewImport: "sort",
	}
}

// lineIndent returns the whitespace prefix of the line containing
// offset.
func lineIndent(src []byte, offset int) string {
	ls := offset
	for ls > 0 && src[ls-1] != '\n' {
		ls--
	}
	i := ls
	for i < len(src) && (src[i] == ' ' || src[i] == '\t') {
		i++
	}
	return string(src[ls:i])
}
