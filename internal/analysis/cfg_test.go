package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadCFGFixture loads the cfg structure fixture without running any
// analyzer on it.
func loadCFGFixture(t *testing.T) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "cfg"))
	if err != nil {
		t.Fatalf("LoadDir(cfg): %v", err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("cfg fixture does not type-check: %v", te)
	}
	return pkg
}

// fixtureFuncs returns the fixture's function declarations in source
// order.
func fixtureFuncs(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// TestCFGStructureGolden pins the block/edge structure the builder
// produces for defer routing, labeled break/continue, switch
// fallthrough, for-range, and goto.
func TestCFGStructureGolden(t *testing.T) {
	pkg := loadCFGFixture(t)
	var sb strings.Builder
	for _, fd := range fixtureFuncs(pkg) {
		sb.WriteString("=== " + fd.Name.Name + "\n")
		sb.WriteString(buildCFG(fd.Body).dump(pkg.Fset))
	}
	got := sb.String()
	goldenPath := filepath.Join("testdata", "cfg.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("CFG structure differs from %s:\n--- got ---\n%s--- want ---\n%s",
			goldenPath, got, want)
	}
}

// TestEnvIdempotence guards the fixpoint: solving the reaching-
// definition environments twice — on the same funcFlow and on a fresh
// one over the same AST — must render identically.
func TestEnvIdempotence(t *testing.T) {
	pkg := loadCFGFixture(t)
	for _, fd := range fixtureFuncs(pkg) {
		first := newFuncFlow(pkg.Info, fd)
		r1 := first.renderEnvs(pkg.Fset)
		if r1 == "<unsolved>" {
			t.Errorf("%s: the reaching-definition fixpoint was abandoned", fd.Name.Name)
			continue
		}
		if again := first.renderEnvs(pkg.Fset); again != r1 {
			t.Errorf("%s: re-rendering the same flow changed the environments:\n%s\nvs\n%s",
				fd.Name.Name, r1, again)
		}
		fresh := newFuncFlow(pkg.Info, fd)
		if r2 := fresh.renderEnvs(pkg.Fset); r2 != r1 {
			t.Errorf("%s: a fresh fixpoint solve produced different environments:\n%s\nvs\n%s",
				fd.Name.Name, r1, r2)
		}
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

// TestBranchSplitEnvs is the direct form of the seedtaint branch-split
// regression: a use inside one arm sees only that arm's definition,
// while the post-join use sees both.
func TestBranchSplitEnvs(t *testing.T) {
	pkg := loadCFGFixture(t)
	var split *ast.FuncDecl
	for _, fd := range fixtureFuncs(pkg) {
		if fd.Name.Name == "split" {
			split = fd
		}
	}
	if split == nil {
		t.Fatal("fixture function split not found")
	}
	flow := newFuncFlow(pkg.Info, split)

	// The use of x inside the branch: the x in `y = x + 1`.
	var inBranch ast.Expr
	// The use of x at the join: the first result of `return x, y`.
	var atJoin ast.Expr
	ast.Inspect(split.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == 1 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "y" {
					inBranch = n.Rhs[0].(*ast.BinaryExpr).X
				}
			}
		case *ast.ReturnStmt:
			atJoin = n.Results[0]
		}
		return true
	})
	if inBranch == nil || atJoin == nil {
		t.Fatal("fixture shapes not found in split")
	}

	got := originNames(flow.originsOf(inBranch))
	if len(got) != 1 || got[0] != "q" {
		t.Errorf("in-branch use of x: origins = %v, want exactly [q]", got)
	}
	got = originNames(flow.originsOf(atJoin))
	if len(got) != 2 || got[0] != "p" || got[1] != "q" {
		t.Errorf("join use of x: origins = %v, want [p q]", got)
	}
}

// TestGotoEnvs: goto edges are ordinary CFG edges, so the reaching-
// definition fixpoint is sound over them. Both the backward jump (the
// loop-carried redefinition reaches the label) and the forward jump
// (the skipped reassignment and the fall-through meet at the label)
// must leave exactly p and q reaching use(x).
func TestGotoEnvs(t *testing.T) {
	for _, fn := range []string{"backjump", "forwardjump"} {
		flow, arg := fixtureFlow(t, "cfg", fn)
		got := originNames(flow.originsOf(arg))
		if len(got) != 2 || got[0] != "p" || got[1] != "q" {
			t.Errorf("%s: use(x) origins = %v, want [p q]", fn, got)
		}
	}
}
