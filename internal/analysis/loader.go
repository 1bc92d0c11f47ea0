// Package analysis is spawnvet's engine: a stdlib-only static-analysis
// framework (go/ast + go/parser + go/types, no golang.org/x/tools
// dependency) plus the project's analyzers. It enforces, at compile
// time, the conventions the simulator's guarantees rest on:
// bit-identical replay of a (config, seed, plan) triple, nil-check-only
// observability hooks on the hot path, InvariantError-only panics in
// the engine, %w error wrapping across package boundaries, and metrics
// registration hygiene. See DESIGN.md "Determinism contract" and the
// README "Static analysis" section.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
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
	// Src holds each file's raw bytes, keyed by filename, for the byte
	// fixer and the directive scanner.
	Src map[string][]byte

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

// Loader parses and type-checks module packages. One Loader shares a
// FileSet and an importer across packages so common dependencies are
// checked once.
type Loader struct {
	Fset *token.FileSet

	// IncludeTests, when set, also loads _test.go files. spawnvet runs
	// with it off: tests legitimately read the wall clock, allocate, and
	// compare errors loosely.
	IncludeTests bool

	modRoot string
	modPath string

	std  types.ImporterFrom // source importer for out-of-module deps
	pkgs map[string]*Package
	// checking guards against import cycles (which would be a compile
	// error anyway, but must not hang the loader).
	checking map[string]bool
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		modRoot:  root,
		modPath:  modPath,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}, nil
}

// ModulePath returns the module's import-path prefix.
func (l *Loader) ModulePath() string { return l.modPath }

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// LoadAll loads every package under the module root (the "./..."
// pattern), in deterministic path order, skipping testdata, vendor, and
// hidden directories.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.modRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir loads the package in one directory (which must live inside
// the loader's module).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.modRoot)
	}
	path := l.modPath
	if rel != "." {
		path = l.modPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// load parses and type-checks the package at (path, dir), memoized.
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.checking[path] = true
	defer func() { l.checking[path] = false }()

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Src: map[string][]byte{}}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		if excludedByBuildConstraint(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		p.Files = append(p.Files, f)
		p.Src[full] = src
	}
	if len(p.Files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	// External test packages (package foo_test files without IncludeTests
	// filtered above) cannot appear here; all files share one package name.
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
	p.Types, _ = conf.Check(path, l.Fset, p.Files, p.Info)
	l.pkgs[path] = p
	return p, nil
}

// excludedByBuildConstraint reports whether a //go:build line above the
// package clause excludes the file from the host build: generator
// scripts (//go:build ignore) and foreign-platform files would
// otherwise fail the type check. Only the host GOOS/GOARCH, the gc
// toolchain tag, and released go1.N versions evaluate true; malformed
// expressions keep the file (the compile error is the better report).
func excludedByBuildConstraint(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			return false // constraints must precede the package clause
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return false
		}
		return !expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
				strings.HasPrefix(tag, "go1")
		})
	}
	return false
}

// loaderImporter resolves module-internal imports through the loader
// itself (so each module package is checked exactly once) and everything
// else — the standard library — through the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.modRoot, 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		p, err := l.load(path, filepath.Join(l.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if p.Types == nil {
			return nil, fmt.Errorf("analysis: %s failed to type-check", path)
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
