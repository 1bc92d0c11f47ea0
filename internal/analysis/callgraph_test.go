package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// TestCallGraphCapsReportedByEveryWalker stages a function with one
// static callee more than callGraphFanCap and a call chain that crosses
// callGraphDepthCap, both called from the fast-forward region of
// GPU.Run: the run root reaches them, and so do the skip roots, one
// level shallower (hence the chain's one extra link). Every analyzer
// that walks the call graph must report each cap exactly once — a
// walker that drops edges without a finding trusts code it never saw.
func TestCallGraphCapsReportedByEveryWalker(t *testing.T) {
	var src strings.Builder
	src.WriteString(`package capped

type Cycle uint64

type GPU struct {
	clock, end Cycle
	busy       bool
}

func (g *GPU) Run() {
	for g.clock < g.end {
		if g.busy {
			g.clock++
			continue
		}
		wide()
		deep0()
	}
}
`)
	src.WriteString("\nfunc wide() {\n")
	for i := 0; i <= callGraphFanCap; i++ {
		fmt.Fprintf(&src, "\tleaf%d()\n", i)
	}
	src.WriteString("}\n")
	for i := 0; i <= callGraphFanCap; i++ {
		fmt.Fprintf(&src, "\nfunc leaf%d() {}\n", i)
	}
	links := callGraphDepthCap + 2
	for i := 0; i < links-1; i++ {
		fmt.Fprintf(&src, "\nfunc deep%d() { deep%d() }\n", i, i+1)
	}
	fmt.Fprintf(&src, "\nfunc deep%d() {}\n", links-1)

	dir := stageInModule(t, "_capped", map[string][]byte{"capped.go": []byte(src.String())})
	walkers := []*Analyzer{HotPathAnalyzer(), PurityAnalyzer(), ClockStepAnalyzer(), SkipSafeAnalyzer()}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("staged package does not type-check: %v", te)
	}
	fan, depth := map[string]int{}, map[string]int{}
	for _, d := range Run([]*Package{pkg}, walkers) {
		switch {
		case strings.Contains(d.Message, fmt.Sprintf("more than %d static callees", callGraphFanCap)):
			fan[d.Analyzer]++
		case strings.Contains(d.Message, "depth cap"):
			depth[d.Analyzer]++
		}
	}
	for _, a := range walkers {
		if fan[a.Name] != 1 || depth[a.Name] != 1 {
			t.Errorf("%s reported the fan cap %d times and the depth cap %d times, want once each",
				a.Name, fan[a.Name], depth[a.Name])
		}
	}
}
