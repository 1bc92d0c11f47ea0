package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SkipSafeAnalyzer certifies the precondition of the event-wheel
// rewrite (ROADMAP item 1): when the engine proves itself idle and
// fast-forwards the clock, nothing observable may change — a skipped
// span must be indistinguishable from ticking through it. The analyzer
// finds the skip-path roots structurally and closes the module call
// graph over them, reporting every effect the closure can perform:
//
//   - writes to package-level variables (directly or through traced
//     aliases);
//   - mutation of caller-visible state: writes through pointer-shaped
//     parameters or receivers (stricter than purity — even the GPU's
//     own fields must stay frozen while idle);
//   - ambient I/O (purity's classification: os/net/log, wall clock,
//     global rand, console fmt);
//   - goroutine spawns and channel sends (observable scheduling).
//
// The roots are (1) every function called on the fast-forward path of
// sim.(GPU).Run — the statements dominated by the false edge of the
// activity branch, identified as the unique `if` whose body both
// advances the clock and continues the loop, plus the branch's init
// statement and condition (the dueness probe, which the stepped
// reference engine re-evaluates at every cycle of a quiet span); calls
// inside cold return paths (deadlock aborts) are excluded — and (2)
// the profTick and heartbeat methods on GPU, which the engine may
// invoke while idle.
//
// Sanctioned escape hatches: packages listed in SkipSafeAccumulators
// (profiling accumulators whose whole purpose is to observe idle
// spans) are trusted leaves, as are functions marked
// //spawnvet:skipsafe <justification> or //spawnvet:pure
// <justification> (purity is a stronger contract). A bare
// //spawnvet:skipsafe fails closed as a malformed-directive
// diagnostic. Site-level suppression: //spawnvet:allow skipsafe
// <justification>.
func SkipSafeAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "skipsafe",
		Doc:    "functions callable during a provably-idle fast-forward must be effect-free",
		Finish: finishSkipSafe,
	}
}

// SkipSafeAccumulators lists module package-path suffixes whose
// functions are sanctioned skip-path sinks: accumulators that exist to
// record idle spans (SkipTo folds skipped cycles into the idle-run
// histograms). Like SeedDerivers and PureFuncs, this is a small
// reviewable registry, not a wildcard.
var SkipSafeAccumulators = []string{"internal/profile"}

func skipSanctionedPkg(pkgPath string) bool {
	for _, suf := range SkipSafeAccumulators {
		if pkgPath == suf || strings.HasSuffix(pkgPath, "/"+suf) {
			return true
		}
	}
	return false
}

// skipTrusted reports whether a function is a trusted skip-path leaf:
// it lives in a sanctioned accumulator package or carries a valid
// //spawnvet:skipsafe or //spawnvet:pure directive.
func skipTrusted(s *funcSummary) bool {
	return skipSanctionedPkg(s.pkg.Path) ||
		s.pkg.marked(s.decl, DirectiveSkipSafe) || s.pkg.marked(s.decl, DirectivePure)
}

// skipRootsFromRun locates the fast-forward region of one GPU.Run body
// and returns the functions it calls outside cold return paths. The
// region is found structurally: the unique `if` whose body both stores
// to the clock field and continues the loop is the activity branch;
// everything dominated by its false edge runs only when the engine has
// proven itself idle. The branch's init statement and condition — the
// dueness probe itself — are certified too: the stepped reference
// engine re-evaluates them at every cycle of a quiet span, so their
// call closure must be as effect-free as the skip region they guard.
// Returns ok=false when the shape is ambiguous.
func skipRootsFromRun(sum *funcSummary) (roots []*types.Func, ok bool) {
	info := sum.pkg.Info
	body := sum.decl.Body
	var activityIf *ast.IfStmt
	count := 0
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, isIf := n.(*ast.IfStmt)
		if !isIf {
			return true
		}
		hasClockStore, hasContinue := false, false
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				for _, l := range m.Lhs {
					if clockFieldSel(info, l) != nil {
						hasClockStore = true
					}
				}
			case *ast.IncDecStmt:
				if clockFieldSel(info, m.X) != nil {
					hasClockStore = true
				}
			case *ast.BranchStmt:
				if m.Tok == token.CONTINUE {
					hasContinue = true
				}
			}
			return true
		})
		if hasClockStore && hasContinue {
			activityIf = ifs
			count++
		}
		return true
	})
	if activityIf == nil || count != 1 {
		return nil, false
	}
	cfg := buildCFG(body)
	var condB *cfgBlock
	for _, b := range cfg.blocks {
		if b.cond == activityIf.Cond {
			condB = b
			break
		}
	}
	if condB == nil || len(condB.succs) != 2 {
		return nil, false
	}
	falseB := condB.succs[1]
	seen := map[*types.Func]bool{}
	collect := func(n ast.Node, stack []ast.Node) {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || inColdContext(info, stack) {
			return
		}
		if fn, isFn := calleeObject(info, call).(*types.Func); isFn && !seen[fn] {
			seen[fn] = true
			roots = append(roots, fn)
		}
	}
	// The dueness probe (init + condition) runs on every engine
	// iteration, including the per-cycle probes of the stepped
	// reference engine while a span is being walked idle.
	if activityIf.Init != nil {
		walkStack(activityIf.Init, collect)
	}
	walkStack(activityIf.Cond, collect)
	for _, b := range cfg.blocks {
		if !cfg.dominates(falseB, b) {
			continue
		}
		for _, node := range b.nodes {
			walkStack(node, collect)
		}
	}
	return roots, true
}

// finishSkipSafe discovers the skip-path roots and reports every effect
// their call-graph closure can perform.
func finishSkipSafe(pass *Pass) {
	if pass.Pkg == nil {
		return
	}
	g := pass.callGraph()
	var roots []*types.Func
	for _, fn := range g.order {
		sum := g.sums[fn]
		if runRoot(sum) {
			rs, ok := skipRootsFromRun(sum)
			if !ok {
				pass.Reportf(sum.decl.Name.Pos(),
					"cannot locate the fast-forward idle region in %s (expected a unique `if <activity> { clock advance; continue }` branch); skip-safety is unverified",
					sum.displayName())
				continue
			}
			roots = append(roots, rs...)
			continue
		}
		if sum.decl.Recv != nil && recvTypeName(sum.decl) == "GPU" &&
			(sum.obj.Name() == "profTick" || sum.obj.Name() == "heartbeat") {
			roots = append(roots, fn)
		}
	}
	g.walkFrom(roots, skipTrusted,
		func(sum *funcSummary, chain []string) {
			if sum.overflow {
				pass.Reportf(sum.decl.Name.Pos(),
					"%s has more than %d static callees; skip-safety is unverifiable (call chain: %s) — split it or mark vetted helpers //spawnvet:skipsafe",
					sum.displayName(), callGraphFanCap, chainText(chain))
			}
			for _, eff := range sum.effects {
				switch eff.kind {
				case effectGlobalWrite, effectLeak:
					pass.Reportf(eff.pos,
						"skip-path function writes %s (call chain: %s); a fast-forwarded idle span must be observationally identical to ticking through it — route the mutation through a sanctioned accumulator or mark the function //spawnvet:skipsafe",
						eff.what, chainText(chain))
				case effectStateWrite:
					pass.Reportf(eff.pos,
						"skip-path function mutates %s (call chain: %s); state must stay frozen while the engine fast-forwards an idle span — or mark the function //spawnvet:skipsafe with a justification",
						eff.what, chainText(chain))
				case effectAmbientIO:
					pass.Reportf(eff.pos,
						"skip-path function performs ambient I/O via %s (call chain: %s); the idle fast-forward must not touch wall-clock or OS state",
						eff.what, chainText(chain))
				case effectSpawn:
					pass.Reportf(eff.pos,
						"skip-path function spawns a goroutine (call chain: %s); a skipped idle span must not schedule observable work",
						chainText(chain))
				case effectSend:
					pass.Reportf(eff.pos,
						"skip-path function sends on a channel (call chain: %s); a skipped idle span must not publish observable events",
						chainText(chain))
				}
			}
		},
		func(sum *funcSummary, pos token.Pos, chain []string) {
			pass.Reportf(pos,
				"call chain from the skip-path roots exceeds the depth cap (%d) inside %s; deeper callees are unverified (chain: %s)",
				callGraphDepthCap, sum.displayName(), chainText(chain))
		})
}
