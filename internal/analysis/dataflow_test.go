package analysis

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureFlow builds the funcFlow of one named function in a fixture
// package and returns it with the argument of the function's final
// `return use(...)` call.
func fixtureFlow(t *testing.T, pkgName, funcName string) (*funcFlow, ast.Expr) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", pkgName))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", pkgName, err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("fixture %s does not type-check: %v", pkgName, te)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != funcName {
				continue
			}
			var arg ast.Expr
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" {
						arg = call.Args[0]
					}
				}
				return true
			})
			if arg == nil {
				t.Fatalf("%s.%s has no use(...) sink", pkgName, funcName)
			}
			return newFuncFlow(pkg.Info, fd), arg
		}
	}
	t.Fatalf("function %s not found in fixture %s", funcName, pkgName)
	return nil, nil
}

// TestDepthCapIsConservative: an assignment chain longer than
// originDepthCap must surface OriginUnknown, not a truncated-but-clean
// origin set.
func TestDepthCapIsConservative(t *testing.T) {
	flow, arg := fixtureFlow(t, "capflow", "deep")
	origins := flow.originsOf(arg)
	unknown := false
	for _, o := range origins {
		if o.Kind == OriginUnknown {
			unknown = true
		}
		if o.Kind == OriginParam {
			t.Errorf("trace deeper than originDepthCap reached the parameter; the cap is not being applied")
		}
	}
	if !unknown {
		t.Errorf("depth-capped trace has no OriginUnknown marker; origins = %v", origins)
	}
}

// TestFanCapIsConservative is the false-negative regression for the
// cap-marker drop: with originFanCap sanctioned origins already
// collected, the one unsanctioned origin traced last must still leave
// an OriginUnknown marker in the set (previously it was silently
// dropped, letting a partially unsanctioned value read as clean).
func TestFanCapIsConservative(t *testing.T) {
	flow, arg := fixtureFlow(t, "capflow", "wide")
	origins := flow.originsOf(arg)
	if len(origins) > originFanCap {
		t.Fatalf("fan cap not applied: %d origins", len(origins))
	}
	unknown := false
	for _, o := range origins {
		if o.Kind == OriginUnknown {
			unknown = true
		}
	}
	if !unknown {
		t.Errorf("fan-capped trace has no OriginUnknown marker; a capped set must never read as fully sanctioned")
	}
}

// TestCapExhaustionSurfacesAsSeedDiagnostic pins the analyzer-level
// behavior: both capped traces must produce the conservative
// "cannot be traced" seedtaint diagnostic at the use(...) sink.
func TestCapExhaustionSurfacesAsSeedDiagnostic(t *testing.T) {
	diags := loadFixture(t, "capflow", SeedTaintAnalyzer())
	var hits int
	for _, d := range diags {
		if d.Analyzer == "seedtaint" && strings.Contains(d.Message, "cannot be traced") {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("want 2 conservative untraceable-origin diagnostics (deep and wide), got %d: %v", hits, diags)
	}
}

// originNames renders an origin set as sorted object names, for
// assertion messages.
func originNames(origins []Origin) []string {
	var names []string
	for _, o := range origins {
		if o.Obj != nil {
			names = append(names, o.Obj.Name())
		} else {
			names = append(names, "<"+o.Kind.String()+">")
		}
	}
	sort.Strings(names)
	return names
}

// TestBranchSplitEnvs pins the flow-insensitive contract on the
// seedtaint branch-split shape: a definition made on one path counts at
// every use, so both the in-branch use of x and use(x) after the branch
// see p and q.
func TestBranchSplitEnvs(t *testing.T) {
	flow, atJoin := fixtureFlow(t, "flow", "split")
	// The use of x inside the branch: the x in `y = x + 1`.
	var inBranch ast.Expr
	ast.Inspect(flow.scope, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && as.Lhs[0].(*ast.Ident).Name == "y" {
			inBranch = as.Rhs[0].(*ast.BinaryExpr).X
		}
		return true
	})
	if inBranch == nil {
		t.Fatal("in-branch use of x not found in split")
	}
	for name, use := range map[string]ast.Expr{"in-branch": inBranch, "join": atJoin} {
		if got := originNames(flow.originsOf(use)); len(got) != 2 || got[0] != "p" || got[1] != "q" {
			t.Errorf("%s use of x: origins = %v, want [p q]", name, got)
		}
	}
}

// TestGotoEnvs: definitions are collected without regard to control
// flow, so gotos need no special case. Both the backward jump and the
// forward jump must leave exactly p and q reaching use(x).
func TestGotoEnvs(t *testing.T) {
	for _, fn := range []string{"backjump", "forwardjump"} {
		flow, arg := fixtureFlow(t, "flow", fn)
		got := originNames(flow.originsOf(arg))
		if len(got) != 2 || got[0] != "p" || got[1] != "q" {
			t.Errorf("%s: use(x) origins = %v, want [p q]", fn, got)
		}
	}
}
