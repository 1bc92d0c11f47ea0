package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stageInModule copies src files into an underscore-prefixed temp
// directory inside this package, so the staged package stays inside the
// spawnsim module (its imports of internal packages resolve) while
// LoadAll and the go tool ignore it.
func stageInModule(t *testing.T, prefix string, files map[string][]byte) string {
	t.Helper()
	dir, err := os.MkdirTemp(".", prefix)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func analyzeExhaustive(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	a := ExhaustiveAnalyzer()
	a.AppliesTo = nil
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("staged package does not type-check: %v", te)
	}
	return Run([]*Package{pkg}, []*Analyzer{a})
}

// TestExhaustiveCatchesNewFaultKind is the regression guard promised in
// DESIGN.md: introducing a new faults.Kind without wiring it through
// Plan.Prob must fail spawnvet. It stages a copy of the real faults
// package, appends a hypothetical new kind, and asserts the exhaustive
// analyzer flags Prob's switch.
func TestExhaustiveCatchesNewFaultKind(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "faults", "faults.go"))
	if err != nil {
		t.Fatal(err)
	}
	staged := append([]byte{}, src...)
	staged = append(staged, []byte("\n// PowerCap is a hypothetical new fault class.\nconst PowerCap Kind = 99\n")...)
	dir := stageInModule(t, "_faultsregress", map[string][]byte{"faults.go": staged})

	// The unmodified package must be clean...
	pristine := stageInModule(t, "_faultspristine", map[string][]byte{"faults.go": src})
	if diags := analyzeExhaustive(t, pristine); len(diags) != 0 {
		t.Fatalf("pristine faults package is not exhaustive-clean: %v", diags)
	}

	// ...and the new kind must trip the analyzer on Prob's switch.
	diags := analyzeExhaustive(t, dir)
	found := false
	for _, d := range diags {
		if d.Analyzer == "exhaustive" && strings.Contains(d.Message, "PowerCap") {
			found = true
		}
	}
	if !found {
		t.Errorf("adding a new Kind produced no exhaustive diagnostic; got %v", diags)
	}
}
