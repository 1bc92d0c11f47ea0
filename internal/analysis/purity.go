package analysis

import (
	"go/token"
	"go/types"
	"strings"
)

// PurityAnalyzer certifies the cacheability contract: the result store
// (internal/store) memoizes runs by a hash of (config, seed, plan,
// workload), which is only sound if every function reachable from the
// simulator's run roots is a pure function of those inputs. The
// analyzer closes the shared module call graph (callgraph.go) over the
// run roots and reports three violation classes with the call chain
// that reaches each one:
//
//   - writes to package-level variables, directly or through a local
//     that the dataflow engine traces back to package-level state
//     (aliasing);
//   - ambient I/O: calls into os/net/syscall/log (and friends), the
//     wall clock (time.Now, Sleep, timers), the global math/rand
//     generator, and console fmt printing;
//   - input-pointer leaks: a package-level write that retains
//     pointer-shaped caller memory handed in through a parameter.
//
// The run roots are the method Run on a receiver type named GPU and the
// harness attempt path (harness.runSpec / harness.runOnce). Pool.Run
// and the CLI drivers deliberately sit outside the pure core: storing,
// journaling, and progress reporting are impure by design, and the
// cache key's validity rests only on what happens inside one attempt.
//
// The one escape hatch is site-level: //spawnvet:allow purity
// <justification>. Dynamic dispatch (interface methods, func-typed
// values) is opaque and assumed pure, mirroring the dataflow engine's
// opaque-call fallback; the determinism and -race gates backstop that
// blind spot.
func PurityAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "purity",
		Doc:    "functions reachable from sim.Run / harness attempts must stay pure in (config, seed, plan, workload)",
		Finish: finishPurity,
	}
}

// ambientPkgPrefixes classifies whole import subtrees as ambient I/O:
// any package-level function or method there touches process, network,
// or OS state.
var ambientPkgPrefixes = []string{
	"os", "net", "syscall", "crypto/rand", "io/ioutil", "log", "database/sql",
}

// timeClockFuncs are the time package's clock readers and timer
// constructors; the rest of the package (Duration arithmetic, Unix,
// Date, Parse) is pure data manipulation.
var timeClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// ambientCall reports whether fn is an ambient-I/O entry point.
func ambientCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	method := sig != nil && sig.Recv() != nil
	switch {
	case path == "time":
		return !method && timeClockFuncs[fn.Name()]
	case path == "fmt":
		// Console printing is ambient; Sprint/Errorf/Fprint build values.
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true
		}
		return false
	case randPkg(path):
		// The global generator is ambient; explicitly seeded streams and
		// their methods were already vetted by seedtaint.
		return !method && !randAllowed[fn.Name()]
	}
	for _, p := range ambientPkgPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// purityRoot reports whether a summary is a run root: the method Run on
// a receiver type named GPU, or the harness attempt path.
func purityRoot(s *funcSummary) bool {
	name := s.obj.Name()
	p := s.obj.Pkg()
	return runRoot(s) ||
		p != nil && p.Name() == "harness" && (name == "runSpec" || name == "runOnce")
}

// finishPurity closes the call graph over the run roots and reports
// every effect reachable from them, naming the call chain of first
// discovery.
func finishPurity(pass *Pass) {
	if pass.Pkg == nil {
		return
	}
	g := pass.callGraph()
	g.walkFrom(g.roots(purityRoot),
		func(sum *funcSummary, chain []string) {
			if sum.overflow {
				pass.Reportf(sum.decl.Name.Pos(),
					"%s has more than %d static callees; purity is unverifiable (call chain: %s) — split it",
					sum.displayName(), callGraphFanCap, chainText(chain))
			}
			for _, eff := range sum.effects {
				switch eff.kind {
				case effectGlobalWrite:
					pass.Reportf(eff.pos,
						"run-reachable function writes %s (call chain: %s); cached runs are valid only if every run is a pure function of (config, seed, plan, workload)",
						eff.what, chainText(chain))
				case effectAmbientIO:
					pass.Reportf(eff.pos,
						"run-reachable function performs ambient I/O via %s (call chain: %s); keep wall-clock and OS state off the run path",
						eff.what, chainText(chain))
				case effectLeak:
					pass.Reportf(eff.pos,
						"run-reachable function leaks caller memory: %s retains pointer input %s (call chain: %s); copy the input instead of retaining it",
						eff.what, eff.param, chainText(chain))
				default:
					// State writes, spawns, and sends are skipsafe's concern.
				}
			}
		},
		func(sum *funcSummary, pos token.Pos, chain []string) {
			pass.Reportf(pos,
				"call chain from the run roots exceeds the purity depth cap (%d) inside %s; deeper callees are unverified (chain: %s)",
				callGraphDepthCap, sum.displayName(), chainText(chain))
		})
}
