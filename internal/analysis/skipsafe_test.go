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
		{"bare directive fails closed", []string{"writes package-level variable launches", "skim"}},
		{"profTick standing root", []string{"mutates g.idle", "profTick"}},
	}
	for _, tc := range cases {
		if !hasDiag(diags, "skipsafe", tc.wants...) {
			t.Errorf("%s: no diagnostic mentioning %q", tc.name, tc.wants)
		}
	}
	if !hasDiag(diags, "directive", "//spawnvet:skipsafe needs a justification") {
		t.Error("bare //spawnvet:skipsafe did not surface as a malformed directive")
	}
	// Sanctioned patterns must stay quiet: the cold abort path, the
	// directive-trusted pace, and the never-reached dispatch.
	for _, fn := range []string{"abort", "pace", "dispatch"} {
		if hasDiag(diags, "skipsafe", fn) {
			t.Errorf("sanctioned function %s was flagged", fn)
		}
	}
}

// TestSkipSafeRealTreeRoots guards root discovery over the real module:
// the structural activity-branch match must locate sim.(GPU).Run's
// fast-forward region (an ambiguous shape would surface as an
// "unverified" diagnostic, an empty root set would certify anything).
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
	for _, fn := range g.roots(runRoot) {
		sum := g.sums[fn]
		roots, ok := skipRootsFromRun(sum)
		if !ok {
			t.Fatalf("skipRootsFromRun failed to locate the fast-forward region in %s", sum.displayName())
		}
		if len(roots) == 0 {
			t.Fatalf("fast-forward region of %s calls nothing; expected at least the idle-skip helpers", sum.displayName())
		}
		return
	}
	t.Fatal("sim.(GPU).Run not found among the collected summaries")
}
