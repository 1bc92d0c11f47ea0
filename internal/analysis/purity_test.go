package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads one testdata/src package and runs the analyzers
// with scoping cleared, returning the surviving diagnostics.
func loadFixture(t *testing.T, name string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	for _, a := range analyzers {
		a.AppliesTo = nil
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("fixture %s does not type-check: %v", name, te)
	}
	return Run([]*Package{pkg}, analyzers)
}

// hasDiag reports whether a diagnostic of the analyzer mentions every
// given substring.
func hasDiag(diags []Diagnostic, analyzer string, wants ...string) bool {
	for _, d := range diags {
		if d.Analyzer != analyzer {
			continue
		}
		ok := true
		for _, w := range wants {
			if !strings.Contains(d.Message, w) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestPurityTruePositives is the staged-violation regression test the
// golden file alone cannot provide: if the analyzer stops tripping on
// an impure package-var write in a Run-reachable function, this fails
// regardless of what the golden says.
func TestPurityTruePositives(t *testing.T) {
	diags := loadFixture(t, "purity", PurityAnalyzer())

	if !hasDiag(diags, "purity", "writes package-level variable launchCount", "purity.bump") {
		t.Errorf("staged global write in a Run-reachable helper did not trip the analyzer; got %v", diags)
	}
	if !hasDiag(diags, "purity", "ambient I/O via time.Now", "purity.stamp → purity.tick") {
		t.Errorf("staged ambient call two hops from Run did not trip with its call chain; got %v", diags)
	}
	if !hasDiag(diags, "purity", "leaks caller memory", "lastInput retains pointer input in") {
		t.Errorf("staged input-pointer leak did not trip; got %v", diags)
	}
	if !hasDiag(diags, "purity", "through t (aliasing table)") {
		t.Errorf("staged alias write through a local did not trip; got %v", diags)
	}
	if !hasDiag(diags, "purity", "purity.sneaky") {
		t.Errorf("a malformed //spawnvet:pure must confer no trust; got %v", diags)
	}
	if !hasDiag(diags, "directive", "//spawnvet:pure needs a justification") {
		t.Errorf("a bare //spawnvet:pure must be a directive diagnostic; got %v", diags)
	}

	for _, d := range diags {
		if strings.Contains(d.Message, "coldReset") {
			t.Errorf("coldReset is unreachable from the run roots and must not be reported: %v", d)
		}
		if strings.Contains(d.Message, "frozen") || strings.Contains(d.Message, "Getenv") {
			t.Errorf("a valid //spawnvet:pure leaf must not be descended into: %v", d)
		}
		if strings.Contains(d.Message, "Getpagesize") {
			t.Errorf("PureFuncs-registered calls must not be reported: %v", d)
		}
	}
}

// TestSharedStateTruePositives stages an unguarded cross-goroutine
// write in a pool-like worker and asserts the analyzer trips — and that
// the sanctioned pool patterns (channel-handed index, mutex guard,
// WaitGroup barrier) stay silent.
func TestSharedStateTruePositives(t *testing.T) {
	diags := loadFixture(t, "sharedstate", SharedStateAnalyzer())

	if !hasDiag(diags, "sharedstate", "goroutine writes total") {
		t.Errorf("unguarded closure write to a shared local did not trip; got %v", diags)
	}
	if !hasDiag(diags, "sharedstate", "goroutine writes vals") {
		t.Errorf("element write with a non-channel index did not trip; got %v", diags)
	}
	if !hasDiag(diags, "sharedstate", "goroutine writes hits") {
		t.Errorf("package-level write from a goroutine did not trip; got %v", diags)
	}
	if !hasDiag(diags, "sharedstate", "write to total after spawning") {
		t.Errorf("enclosing-scope write with no barrier did not trip; got %v", diags)
	}

	for _, d := range diags {
		if d.Analyzer != "sharedstate" {
			continue
		}
		if strings.Contains(d.Message, "outs") || strings.Contains(d.Message, "firstErr") {
			t.Errorf("sanctioned pool pattern was flagged: %v", d)
		}
		if strings.Contains(d.Message, "ready") {
			t.Errorf("allow-suppressed write surfaced: %v", d)
		}
	}
}

// TestPurityRealTreeRoots guards the root set over the real module: the
// simulator core and the harness attempt path must be discovered as
// purity roots (an empty reachable set would certify anything).
func TestPurityRealTreeRoots(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for _, dir := range []string{"../sim", "../harness"} {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		g := buildCallGraph([]*Package{pkg})
		var roots []string
		for _, fn := range g.roots(purityRoot) {
			roots = append(roots, g.sums[fn].displayName())
		}
		want := map[string]string{
			"../sim":     "sim.(GPU).Run",
			"../harness": "harness.runSpec",
		}[dir]
		found := false
		for _, r := range roots {
			if r == want {
				found = true
			}
		}
		if !found {
			t.Errorf("purity roots of %s = %v, want %s among them", dir, roots, want)
		}
	}
}
