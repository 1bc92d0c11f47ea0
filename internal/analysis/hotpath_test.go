package analysis

import (
	"go/token"
	"path/filepath"
	"testing"
)

// TestHotPathCrossPackage pins the walk across package boundaries: a
// helper in another package has no root of its own, yet it is hot
// because the run root calls it, and its finding names that chain.
func TestHotPathCrossPackage(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, dir := range []string{"hotpath", "hotpath/hotlib"} {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := Run(pkgs, []*Analyzer{HotPathAnalyzer()})
	if !hasDiag(diags, "hotpath", "fmt.Sprint in hot path", "hotpath.(GPU).Run → hotlib.Label") {
		t.Errorf("formatting in a cross-package callee of the run root was not flagged with its chain; got %v", diags)
	}
}

// TestHotPathRealTreeCoverage guards the hot set over the real module:
// the per-cycle entry points of the sub-engines and the profiler's
// accumulators carry no marker, so the walk from sim.(GPU).Run must
// reach them through static calls (smx.Place through the marked
// sim.(GPU).place). If a refactor moves one behind dynamic dispatch it
// would leave the hot set silently; this test fails instead, asking
// for a marker at the new boundary.
func TestHotPathRealTreeCoverage(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	g := buildCallGraph(pkgs)
	hot := map[string]bool{}
	g.walkFrom(g.roots(hotRoot),
		func(sum *funcSummary, _ []string) { hot[sum.displayName()] = true },
		func(sum *funcSummary, _ token.Pos, chain []string) {
			t.Errorf("depth cap exceeded inside %s (chain: %s)", sum.displayName(), chainText(chain))
		})
	for _, fn := range []string{
		"gmu.(GMU).Enqueue", "gmu.(GMU).Dispatch", "gmu.(GMU).DispatchState", "gmu.(GMU).QueueState",
		"smx.(SMX).Place", "smx.(SMX).Release", "smx.(SMX).Pick", "smx.(SMX).ActivityState",
		"mem.(Hierarchy).Access",
		"profile.(Profile).Note", "profile.(Profile).SampleDue", "profile.(Profile).EndTick",
		"profile.(Profile).SkipTo", "profile.(Profile).Finish", "profile.(Profile).KernelSite",
		"sim.(GPU).place",
	} {
		if !hot[fn] {
			t.Errorf("%s is not in the hot set (%d functions reached)", fn, len(hot))
		}
	}
}
