package analysis

import "testing"

// TestSkipSafeTruePositives pins every effect class the analyzer must
// keep reporting on the staged fixture.
func TestSkipSafeTruePositives(t *testing.T) {
	diags := loadFixture(t, "skipsafe", SkipSafeAnalyzer())
	cases := []struct {
		name  string
		wants []string
	}{
		{"package write", []string{"writes package-level variable launches", "recordStats"}},
		{"receiver mutation", []string{"mutates g.idle", "touch"}},
		{"ambient io", []string{"ambient I/O via time.Now", "logIdle"}},
		{"goroutine spawn", []string{"spawns a goroutine", "fanout"}},
		{"channel send", []string{"sends on a channel", "publish"}},
		{"multi-hop chain", []string{"probe → skipsafe.helper"}},
		{"aliased global", []string{"through t (aliasing table)", "scribble"}},
		{"dueness-probe root", []string{"mutates g.idle", "nextWork", "sniff"}},
		{"leftover directive trusts nothing", []string{"writes package-level variable launches", "skim"}},
		{"accumulator in the skip region", []string{"mutates g.idle", "profTick"}},
		{"write before the parameter is rebound", []string{"mutates *p (caller-visible through p)", "pace"}},
	}
	for _, tc := range cases {
		if !hasDiag(diags, "skipsafe", tc.wants...) {
			t.Errorf("%s: no diagnostic mentioning %q", tc.name, tc.wants)
		}
	}
	if !hasDiag(diags, "directive", `unknown spawnvet directive "//spawnvet:skipsafe"`) {
		t.Error("a leftover //spawnvet:skipsafe did not surface as an unknown directive")
	}
	// Sanctioned patterns must stay quiet: the cold abort path and the
	// never-reached dispatch.
	for _, fn := range []string{"abort", "dispatch"} {
		if hasDiag(diags, "skipsafe", fn) {
			t.Errorf("sanctioned function %s was flagged", fn)
		}
	}
}

// TestSkipSafeRealTreeRoots pins root discovery over the real module:
// the structural activity-branch match must locate sim.(GPU).Run's
// fast-forward region (an ambiguous shape would surface as an
// "unverified" diagnostic, an empty root set would certify anything),
// and the region must call exactly the dueness probe.
func TestSkipSafeRealTreeRoots(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir("../sim")
	if err != nil {
		t.Fatalf("LoadDir(../sim): %v", err)
	}
	g := buildCallGraph([]*Package{pkg})
	runs := g.roots(runRoot)
	if len(runs) != 1 {
		t.Fatalf("want exactly one run root, got %d", len(runs))
	}
	roots, ok := skipRootsFromRun(g.sums[runs[0]])
	if !ok {
		t.Fatal("skipRootsFromRun failed to locate the fast-forward region in sim.(GPU).Run")
	}
	var names []string
	for _, fn := range roots {
		names = append(names, g.sums[fn].displayName())
	}
	if len(names) != 1 || names[0] != "sim.(GPU).nextEvent" {
		t.Errorf("skip-path roots = %v, want [sim.(GPU).nextEvent]", names)
	}
}
