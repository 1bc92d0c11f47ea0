package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	File     string
	Line     int
	Column   int
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
	// callGraph returns the call graph over every package of the Run,
	// built on first use and shared by all analyzers (callgraph.go).
	callGraph func() *callGraph
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// An Analyzer is one named rule set.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo reports whether the analyzer covers the package with the
	// given import path. Nil means "every package". The driver consults
	// it; tests bypass it by invoking Run directly.
	AppliesTo func(pkgPath string) bool
	// Run, when non-nil, analyzes one package.
	Run func(*Pass)
	// Finish, when non-nil, runs after every package has been analyzed
	// (module-wide rules such as cross-package name collisions and the
	// call-graph contracts). The analyzer accumulates state in Run and
	// reports through the final pass handed here.
	Finish func(*Pass)
	// Reset clears accumulated state so one Analyzer value can serve
	// several driver invocations (tests).
	Reset func()
}

// Analyzers returns the full spawnvet suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		HotPathAnalyzer(),
		InvariantsAnalyzer(),
		ErrWrapAnalyzer(),
		MetricsHygieneAnalyzer(),
		SeedTaintAnalyzer(),
		ExhaustiveAnalyzer(),
		UnitsAnalyzer(),
		PurityAnalyzer(),
		SharedStateAnalyzer(),
		ClockStepAnalyzer(),
		SkipSafeAnalyzer(),
	}
}

// AnalyzerNames lists the suite's analyzer names.
func AnalyzerNames() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return out
}

// pathWithin builds an AppliesTo predicate matching a set of import-path
// prefixes relative to the module (e.g. "internal/sim" covers
// internal/sim and internal/sim/gmu in any module).
func pathWithin(prefixes ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, pre := range prefixes {
			if strings.HasSuffix(pkgPath, "/"+pre) || strings.Contains(pkgPath, "/"+pre+"/") || pkgPath == pre {
				return true
			}
		}
		return false
	}
}

// pathWithinOrRoot matches like pathWithin and additionally covers the
// module root package itself (an import path with no "/" separator —
// the CLIs' shared benchmark drivers live there).
func pathWithinOrRoot(prefixes ...string) func(string) bool {
	within := pathWithin(prefixes...)
	return func(pkgPath string) bool {
		return within(pkgPath) || !strings.Contains(pkgPath, "/")
	}
}

// Run executes the analyzers over the packages: scope filtering,
// directive suppression, and directive validation. Diagnostics come
// back sorted by file, line, column, analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var graph *callGraph
	callGraph := func() *callGraph {
		if graph == nil {
			graph = buildCallGraph(pkgs)
		}
		return graph
	}
	for _, a := range analyzers {
		if a.Reset != nil {
			a.Reset()
		}
	}
	for _, pkg := range pkgs {
		pkg.scanDirectives()
		for _, a := range analyzers {
			if a.Run == nil || (a.AppliesTo != nil && !a.AppliesTo(pkg.Path)) {
				continue
			}
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags, callGraph: callGraph})
		}
		diags = append(diags, pkg.directiveProblems()...)
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(&Pass{Analyzer: a, Pkg: lastPkg(pkgs), diags: &diags, callGraph: callGraph})
		}
	}
	diags = suppress(pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

func lastPkg(pkgs []*Package) *Package {
	if len(pkgs) == 0 {
		return nil
	}
	return pkgs[len(pkgs)-1]
}

// suppress drops diagnostics covered by a valid //spawnvet:allow
// directive on the same line or the line immediately above.
func suppress(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	byFile := map[string][]*Directive{}
	for _, pkg := range pkgs {
		for _, d := range pkg.directives {
			if d.Kind == DirectiveAllow && d.Err == "" {
				byFile[d.Pos.Filename] = append(byFile[d.Pos.Filename], d)
			}
		}
	}
	kept := diags[:0]
	for _, diag := range diags {
		ok := true
		for _, d := range byFile[diag.File] {
			if (d.Pos.Line == diag.Line || d.Pos.Line == diag.Line-1) && d.Allows(diag.Analyzer) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, diag)
		}
	}
	return kept
}

// DirectiveKind distinguishes the spawnvet comment directives.
type DirectiveKind uint8

const (
	// DirectiveAllow suppresses named analyzers on its (or the next) line:
	//
	//	//spawnvet:allow purity stall-guard timer only aborts a wedged run
	//
	// The justification text after the analyzer list is mandatory.
	DirectiveAllow DirectiveKind = iota
	// DirectiveHotPath marks a function declaration as a hot-path root
	// for the hotpath analyzer: //spawnvet:hotpath. Everything sim.Run
	// reaches through static calls is hot already; the marker belongs
	// only on per-cycle code the engine reaches through dynamic
	// dispatch (an interface method, a func value), which the call
	// graph cannot follow.
	DirectiveHotPath
)

// Directive is one parsed //spawnvet:... comment.
type Directive struct {
	Kind          DirectiveKind
	Analyzers     []string
	Justification string
	Pos           token.Position
	// Err describes a malformed directive ("" when well-formed).
	Err string
}

// Allows reports whether the directive suppresses the named analyzer.
func (d *Directive) Allows(name string) bool {
	for _, a := range d.Analyzers {
		if a == name {
			return true
		}
	}
	return false
}

// scanDirectives parses every //spawnvet: comment in the package.
func (p *Package) scanDirectives() {
	if p.directives != nil {
		return
	}
	p.directives = []*Directive{}
	known := map[string]bool{}
	for _, n := range AnalyzerNames() {
		known[n] = true
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//spawnvet:")
				if !ok {
					continue
				}
				d := &Directive{Pos: p.Fset.Position(c.Pos())}
				word, rest := text, ""
				if i := strings.IndexAny(text, " \t"); i >= 0 {
					word, rest = text[:i], text[i:]
				}
				switch {
				case text == "hotpath":
					d.Kind = DirectiveHotPath
				case word == "allow":
					d.Kind = DirectiveAllow
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						d.Err = "//spawnvet:allow needs an analyzer list and a justification"
						break
					}
					for _, name := range strings.Split(fields[0], ",") {
						if !known[name] {
							d.Err = fmt.Sprintf("//spawnvet:allow names unknown analyzer %q (have %s)",
								name, strings.Join(AnalyzerNames(), ", "))
						}
						d.Analyzers = append(d.Analyzers, name)
					}
					d.Justification = strings.Join(fields[1:], " ")
					if d.Err == "" && d.Justification == "" {
						d.Err = fmt.Sprintf("//spawnvet:allow %s needs a justification after the analyzer list", fields[0])
					}
				default:
					d.Err = fmt.Sprintf("unknown spawnvet directive %q", "//spawnvet:"+text)
				}
				p.directives = append(p.directives, d)
			}
		}
	}
}

// directiveProblems reports malformed directives as diagnostics of the
// pseudo-analyzer "directive" (not suppressible).
func (p *Package) directiveProblems() []Diagnostic {
	var out []Diagnostic
	for _, d := range p.directives {
		if d.Err != "" {
			out = append(out, Diagnostic{
				Analyzer: "directive",
				Pos:      d.Pos,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Err,
			})
		}
	}
	return out
}

// hotPathMarked reports whether the function declaration carries a
// valid //spawnvet:hotpath marker in its doc comment. A malformed
// spelling confers nothing: it surfaces as a directive diagnostic.
func (p *Package) hotPathMarked(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	p.scanDirectives()
	for _, c := range fn.Doc.List {
		if !strings.HasPrefix(c.Text, "//spawnvet:") {
			continue
		}
		pos := p.Fset.Position(c.Pos())
		for _, d := range p.directives {
			if d.Kind == DirectiveHotPath && d.Err == "" &&
				d.Pos.Filename == pos.Filename && d.Pos.Line == pos.Line {
				return true
			}
		}
	}
	return false
}
