package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestClockStepTruePositives is the staged-violation regression test
// the golden alone cannot provide: each rule must keep tripping on its
// canonical offender.
func TestClockStepTruePositives(t *testing.T) {
	diags := loadFixture(t, "clockstep", ClockStepAnalyzer())
	cases := []struct {
		name  string
		wants []string
	}{
		{"rule 2 raw store", []string{"raw store to the engine clock g.clock"}},
		{"rule 2 decrement", []string{"engine clock g.clock is decremented"}},
		{"rule 1 literal stamp", []string{"store to Cycle-typed g.deadline cannot be traced"}},
		{"rule 1 wall-clock laundering", []string{"wall-clock entropy from time.Now().UnixNano()", "Cycle-typed g.deadline"}},
		{"rule 3 fabricated timestamp", []string{"fabricated timestamp: literal 0", "parameter of checkpoint"}},
		{"rule 4 stale snapshot", []string{"comparison uses limit", "loop advances the clock"}},
	}
	for _, tc := range cases {
		if !hasDiag(diags, "clockstep", tc.wants...) {
			t.Errorf("%s: no diagnostic mentioning %q", tc.name, tc.wants)
		}
	}
	// The guard-fact proof must keep sanctioning the fast-forward skip:
	// the fixture marks those stores "guarded: monotone".
	src, err := os.ReadFile(filepath.Join("testdata", "src", "clockstep", "clockstep.go"))
	if err != nil {
		t.Fatal(err)
	}
	guarded := map[int]bool{}
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "guarded: monotone") {
			guarded[i+1] = true
		}
		// Every clock store the fixture marks flagged (the parameter
		// that is not now/cycle, the guard left by goto, ...) must be.
		if strings.Contains(line, "g.clock = ") && strings.Contains(line, "// flagged") &&
			!hasLine(diags, i+1, "raw store to the engine clock") {
			t.Errorf("clock store at clockstep.go:%d not flagged: %s", i+1, strings.TrimSpace(line))
		}
	}
	if len(guarded) == 0 {
		t.Fatal("fixture lost its guarded-store cases")
	}
	for _, d := range diags {
		if guarded[d.Line] {
			t.Errorf("guarded fast-forward store flagged at line %d: %s", d.Line, d.Message)
		}
	}
}

// TestClockStepRealTreeClean pins the PR's before/after: the engine
// threads its clock everywhere, so the real simulator core must be
// clean (the pre-fix tree reported five fabricated Invariantf(0, ...)
// timestamps here).
func TestClockStepRealTreeClean(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	a := ClockStepAnalyzer()
	var pkgs []*Package
	for _, dir := range []string{"../sim", "../sim/kernel", "../sim/gmu", "../sim/smx"} {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, d := range Run(pkgs, []*Analyzer{a}) {
		t.Errorf("clockstep diagnostic on the real tree: %s:%d: %s", d.File, d.Line, d.Message)
	}
}

// hasLine reports whether a diagnostic on the given line mentions want.
func hasLine(diags []Diagnostic, line int, want string) bool {
	for _, d := range diags {
		if d.Line == line && strings.Contains(d.Message, want) {
			return true
		}
	}
	return false
}
