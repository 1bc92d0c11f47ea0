// Package analysis is spawnvet's engine: a static-analysis framework on
// the standard library's go/ast, go/parser and go/types (no
// golang.org/x/tools dependency), fed by the go command, plus the
// project's analyzers. It enforces, at compile time, the conventions
// the simulator's guarantees rest on: bit-identical replay of a
// (config, seed, plan) triple, nil-check-only observability hooks on
// the hot path, InvariantError-only panics in the engine, %w error
// wrapping across package boundaries, and metrics registration hygiene.
// See DESIGN.md "Determinism contract" and the README "Static analysis"
// section.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package of the module
// under analysis.
type Package struct {
	// Path is the package's import path; Dir its directory on disk.
	Path string
	Dir  string

	Fset  *token.FileSet
	Files []*ast.File

	Types *types.Package
	Info  *types.Info

	// TypeErrors collects soft type-check failures. Analysis proceeds on
	// a best-effort basis when non-empty (uses that did not resolve stay
	// absent from Info and are skipped by the analyzers).
	TypeErrors []error

	directives []*Directive
	// flowScopes is the package's origin-query cache, built on first use
	// and shared by every analyzer (see flows).
	flowScopes *flowCache
}

// flows returns the package's shared origin-query cache.
func (p *Package) flows() *flowCache {
	if p.flowScopes == nil {
		p.flowScopes = newFlowCache(p.Info)
	}
	return p.flowScopes
}

// Loader parses and type-checks module packages. The go command decides
// what a package is: one `go list` per load names each package's
// non-test files (build constraints applied) and its dependencies in
// dependency order, and builds the standard library's export data,
// which the gc importer reads. One Loader shares a FileSet and the
// checked packages across loads, so each package is checked once.
type Loader struct {
	Fset *token.FileSet

	root   string            // directory of the go.mod enclosing the loader's dir
	std    types.Importer    // gc importer over export
	export map[string]string // standard import path -> export data file
	pkgs   map[string]*Package
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go env GOMOD in %s: %w", dir, err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return nil, fmt.Errorf("analysis: no go.mod above %s", dir)
	}
	l := &Loader{
		Fset:   token.NewFileSet(),
		root:   filepath.Dir(gomod),
		export: map[string]string{},
		pkgs:   map[string]*Package{},
	}
	l.std = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return l, nil
}

// LoadAll loads the "./..." packages of the module and of every module
// nested one directory below its root, in directory order.
func (l *Loader) LoadAll() ([]*Package, error) {
	nested, err := filepath.Glob(filepath.Join(l.root, "*", "go.mod"))
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, gomod := range append([]string{filepath.Join(l.root, "go.mod")}, nested...) {
		pkgs, err := l.list(filepath.Dir(gomod), "./...")
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dir < out[j].Dir })
	return out, nil
}

// LoadDir loads the package in one directory (which must live inside
// the loader's module).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if rel, err := filepath.Rel(l.root, abs); err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.root)
	}
	pkgs, err := l.list(abs, ".")
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return pkgs[0], nil
}

// listed is the part of a `go list -json` record the loader reads.
type listed struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard, DepOnly       bool
	Error                   *struct{ Err string }
}

// list runs `go list` on pattern in dir, records the export data of the
// standard packages, type-checks the module packages in the order
// listed, and returns the ones the pattern matched. A module package
// that does not compile still loads (its errors land in TypeErrors);
// an error is fatal only for a standard package or a matched pattern
// with no Go files.
func (l *Loader) list(dir, pattern string) ([]*Package, error) {
	cmd := exec.Command("go", "list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Standard,Export,DepOnly,Error", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s in %s: %w\n%s", pattern, dir, err, stderr.Bytes())
	}
	var matched []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listed
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("analysis: go list output: %w", err)
		}
		if lp.Error != nil && (lp.Standard || !lp.DepOnly && len(lp.GoFiles) == 0) {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		switch {
		case lp.Standard:
			l.export[lp.ImportPath] = lp.Export
		case len(lp.GoFiles) > 0:
			p, err := l.check(lp)
			if err != nil {
				return nil, err
			}
			if !lp.DepOnly {
				matched = append(matched, p)
			}
		}
	}
	return matched, nil
}

// check parses and type-checks one module package, memoized.
func (l *Loader) check(lp listed) (*Package, error) {
	if p, ok := l.pkgs[lp.ImportPath]; ok {
		return p, nil
	}
	p := &Package{Path: lp.ImportPath, Dir: lp.Dir, Fset: l.Fset}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		p.Files = append(p.Files, f)
	}
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Types, _ = conf.Check(p.Path, l.Fset, p.Files, p.Info)
	l.pkgs[p.Path] = p
	return p, nil
}

// loaderImporter resolves module imports to the packages the loader
// already checked (`go list` lists dependencies first) and everything
// else to the standard library's export data.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	if p, ok := li.pkgs[path]; ok {
		return p.Types, nil
	}
	return li.std.Import(path)
}
