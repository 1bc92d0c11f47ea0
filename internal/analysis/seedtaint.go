package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// SeedTaintAnalyzer enforces seed provenance: the replay contract makes
// every run a pure function of (config, seed, plan), which only holds
// if every random stream in the model is seeded from a value that
// traces back to a Spec/config/plan seed field or a registered seed
// derivation helper. The analyzer origin-tracks every expression used
// as a seed through the dataflow engine (dataflow.go):
//
//   - arguments of rand.NewSource / rand.NewPCG / rand.NewChaCha8 and
//     of (*rand.Rand).Seed;
//   - arguments passed to any parameter whose name contains "seed"
//     (this is how literal re-seeds at call sites like
//     inputs.Citation(n, deg, 42) are caught);
//   - values assigned to struct fields whose name contains "seed",
//     including composite-literal keys (faults.Plan{Seed: ...}).
//
// A seed expression passes when its origins contain at least one
// sanctioned source and nothing unsanctioned. Sanctioned sources are:
// parameters, struct fields, package-level variables, and named
// constants whose name contains "seed" (any case), and calls to a
// registered derivation helper — a function whose name contains "seed"
// (retrySeed, benchSeed, ...).
// Diagnostics:
//
//   - ambient entropy (time.Now, os.Getpid, crypto/rand) seeding a
//     stream makes runs unreproducible;
//   - literal-only seeds pin a stream outside the seed registry;
//   - untraceable origins (opaque calls, unrelated variables) hide
//     where the stream's schedule comes from;
//   - package-level *rand.Rand / rand.Source variables share one
//     stream across runs (cross-run seed reuse).
func SeedTaintAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "seedtaint",
		Doc:  "rand seeds must trace to Spec/config seed fields or registered derivation helpers",
		AppliesTo: pathWithinOrRoot(
			"internal/sim", "internal/faults", "internal/harness",
			"internal/workloads", "internal/inputs", "cmd",
		),
		Run: runSeedTaint,
	}
}

// seedNamed reports whether an identifier participates in the seed
// registry by name.
func seedNamed(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// isSeedDeriver reports whether obj is a registered derivation helper:
// a function whose name contains "seed".
func isSeedDeriver(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && seedNamed(fn.Name())
}

// randPkg reports whether path is math/rand or math/rand/v2.
func randPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// randSeedFuncs are the math/rand constructors and methods whose
// arguments are seeds.
var randSeedFuncs = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true, "Seed": true,
}

func runSeedTaint(pass *Pass) {
	flows := pass.Pkg.flows()
	checked := map[ast.Expr]bool{}
	for _, f := range pass.Pkg.Files {
		checkGlobalRandVars(pass, f)
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkSeedCall(pass, flows, checked, n, stack)
			case *ast.AssignStmt:
				checkSeedFieldAssign(pass, flows, checked, n, stack)
			case *ast.CompositeLit:
				checkSeedFieldLiteral(pass, flows, checked, n, stack)
			}
		})
	}
}

// checkGlobalRandVars flags package-level random streams: one stream
// shared across runs means later runs consume state earlier runs
// advanced, which is cross-run seed reuse.
func checkGlobalRandVars(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				v, ok := pass.Pkg.Info.Defs[name].(*types.Var)
				if !ok || v.Parent() != pass.Pkg.Types.Scope() {
					continue
				}
				if isRandStreamType(v.Type()) {
					pass.Reportf(name.Pos(),
						"package-level random stream %s is shared across runs (cross-run seed reuse); construct it from the run's seed instead",
						name.Name)
				}
			}
		}
	}
}

// isRandStreamType reports whether t is *rand.Rand or a rand.Source.
func isRandStreamType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	if !randPkg(n.Obj().Pkg().Path()) {
		return false
	}
	switch n.Obj().Name() {
	case "Rand", "Source", "PCG", "ChaCha8", "Zipf":
		return true
	}
	return false
}

// checkSeedCall audits seed-carrying call arguments: the explicit
// math/rand seed sites and any call whose parameter is seed-named.
func checkSeedCall(pass *Pass, flows *flowCache, checked map[ast.Expr]bool, call *ast.CallExpr, stack []ast.Node) {
	obj := calleeObject(pass.Pkg.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	// Never audit the arguments of a derivation helper itself: deriving
	// a child seed from a parent seed plus a salt is the sanctioned
	// pattern (retrySeed(seed, attempt)).
	if isSeedDeriver(fn) {
		return
	}
	isRandSeedFn := fn.Pkg() != nil && randPkg(fn.Pkg().Path()) && randSeedFuncs[fn.Name()] ||
		isRandSeedMethod(fn)
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi >= sig.Params().Len() {
			break
		}
		param := sig.Params().At(pi)
		if isRandSeedFn || seedNamed(param.Name()) {
			checkSeedExpr(pass, flows, checked, arg, stack,
				fmt.Sprintf("argument %q of %s", param.Name(), fn.Name()))
		}
	}
}

// isRandSeedMethod reports whether fn is (*rand.Rand).Seed or
// (rand.Source).Seed.
func isRandSeedMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return fn.Name() == "Seed" && fn.Pkg() != nil && randPkg(fn.Pkg().Path())
}

// checkSeedFieldAssign audits assignments whose target is a seed-named
// struct field (p.Seed = ...).
func checkSeedFieldAssign(pass *Pass, flows *flowCache, checked map[ast.Expr]bool, as *ast.AssignStmt, stack []ast.Node) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || !seedNamed(sel.Sel.Name) {
			continue
		}
		if s, ok := pass.Pkg.Info.Selections[sel]; !ok || s.Kind() != types.FieldVal {
			continue
		}
		checkSeedExpr(pass, flows, checked, as.Rhs[i], stack,
			fmt.Sprintf("assignment to field %s", sel.Sel.Name))
	}
}

// checkSeedFieldLiteral audits seed-named keys in composite literals
// (faults.Plan{Seed: ...}).
func checkSeedFieldLiteral(pass *Pass, flows *flowCache, checked map[ast.Expr]bool, cl *ast.CompositeLit, stack []ast.Node) {
	if _, ok := pass.Pkg.Info.Types[cl].Type.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !seedNamed(key.Name) {
			continue
		}
		checkSeedExpr(pass, flows, checked, kv.Value, stack,
			fmt.Sprintf("field %s", key.Name))
	}
}

// ambientEntropy matches calls that read entropy from the environment.
func ambientEntropy(o Origin) bool {
	fn, ok := o.Obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "time":
		// Now/Since, plus the Time methods a seed expression would end in
		// (time.Now().UnixNano() traces to the UnixNano leaf).
		switch fn.Name() {
		case "Now", "Since", "Unix", "UnixNano", "UnixMicro", "UnixMilli":
			return true
		}
		return false
	case "os":
		return fn.Name() == "Getpid" || fn.Name() == "Getppid" || fn.Name() == "Getenv"
	case "crypto/rand":
		return true
	}
	return false
}

// sanctionedSeedOrigin reports whether one origin is a legitimate seed
// source.
func sanctionedSeedOrigin(o Origin) bool {
	switch o.Kind {
	case OriginParam, OriginField, OriginGlobal:
		return o.Obj != nil && seedNamed(o.Obj.Name())
	case OriginCall:
		return o.Obj != nil && isSeedDeriver(o.Obj)
	case OriginLiteral:
		// A named constant in the seed registry (const baseSeed = ...)
		// is a root; an anonymous literal is not.
		return o.Obj != nil && seedNamed(o.Obj.Name())
	case OriginUnknown:
		return false
	}
	return false
}

// checkSeedExpr classifies the origins of one seed expression and
// reports the first violation.
func checkSeedExpr(pass *Pass, flows *flowCache, checked map[ast.Expr]bool, e ast.Expr, stack []ast.Node, context string) {
	if checked[e] {
		return
	}
	checked[e] = true
	origins := flows.at(stack).originsOf(e)
	sanctioned := false
	for _, o := range origins {
		if ambientEntropy(o) {
			pass.Reportf(e.Pos(),
				"%s is seeded from ambient entropy (%s); runs are no longer reproducible from (config, seed, plan)",
				context, exprText(o.Expr))
			return
		}
		if sanctionedSeedOrigin(o) {
			sanctioned = true
		} else if o.Kind != OriginLiteral {
			pass.Reportf(e.Pos(),
				"%s cannot be traced to a seed source: %s %s is neither a seed field/parameter nor a registered derivation helper",
				context, o.Kind, exprText(o.Expr))
			return
		}
	}
	if !sanctioned {
		pass.Reportf(e.Pos(),
			"%s is a literal re-seed; route it through a seed field or a registered derivation helper (a func whose name contains \"seed\")",
			context)
	}
}
