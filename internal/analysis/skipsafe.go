package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
// The roots are the functions called on the fast-forward path of
// sim.(GPU).Run: the activity branch's init statement and condition
// (the dueness probe, which the stepped reference engine re-evaluates
// at every cycle of a quiet span), its else, and the statements after
// it in its block. The activity branch is the unique `if` whose body
// both advances the clock and continues the loop. Calls inside cold
// return paths (deadlock aborts) are excluded. Everything the roots
// reach is checked, profiling accumulators included; the only escape
// hatch is the site-level //spawnvet:allow skipsafe <justification>.
func SkipSafeAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "skipsafe",
		Doc:    "functions callable during a provably-idle fast-forward must be effect-free",
		Finish: finishSkipSafe,
	}
}

// skipRootsFromRun locates the fast-forward region of one GPU.Run body
// and returns the functions it calls outside cold return paths. The
// region is found structurally: the unique `if` whose body both stores
// to the clock field and continues the loop is the activity branch.
// Its else and the statements after it in its block run only when the
// engine has proven itself idle. Its init statement and condition —
// the dueness probe itself — are certified too: the stepped reference
// engine re-evaluates them at every cycle of a quiet span, so their
// call closure must be as effect-free as the region they guard.
// Returns ok=false when the shape is ambiguous or the branch does not
// sit directly in a block.
func skipRootsFromRun(sum *funcSummary) (roots []*types.Func, ok bool) {
	info := sum.pkg.Info
	var activityIf *ast.IfStmt
	var block *ast.BlockStmt
	count := 0
	walkStack(sum.decl.Body, func(n ast.Node, stack []ast.Node) {
		ifs, isIf := n.(*ast.IfStmt)
		if !isIf {
			return
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
			block, _ = stack[len(stack)-1].(*ast.BlockStmt)
			count++
		}
	})
	if count != 1 || block == nil {
		return nil, false
	}
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
	region := []ast.Node{activityIf.Init, activityIf.Cond, activityIf.Else}
	for _, s := range block.List[slices.Index(block.List, ast.Stmt(activityIf))+1:] {
		region = append(region, s)
	}
	for _, n := range region {
		if n != nil {
			walkStack(n, collect)
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
	for _, fn := range g.roots(runRoot) {
		sum := g.sums[fn]
		rs, ok := skipRootsFromRun(sum)
		if !ok {
			pass.Reportf(sum.decl.Name.Pos(),
				"cannot locate the fast-forward idle region in %s (expected a unique `if <activity> { clock advance; continue }` branch); skip-safety is unverified",
				sum.displayName())
			continue
		}
		roots = append(roots, rs...)
	}
	g.walkFrom(roots,
		func(sum *funcSummary, chain []string) {
			if sum.overflow {
				pass.Reportf(sum.decl.Name.Pos(),
					"%s has more than %d static callees; skip-safety is unverifiable (call chain: %s) — split it",
					sum.displayName(), callGraphFanCap, chainText(chain))
			}
			for _, eff := range sum.effects {
				switch eff.kind {
				case effectGlobalWrite, effectLeak:
					pass.Reportf(eff.pos,
						"skip-path function writes %s (call chain: %s); a fast-forwarded idle span must be observationally identical to ticking through it",
						eff.what, chainText(chain))
				case effectStateWrite:
					pass.Reportf(eff.pos,
						"skip-path function mutates %s (call chain: %s); state must stay frozen while the engine fast-forwards an idle span",
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
