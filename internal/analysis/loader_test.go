package analysis

import (
	"go/build"
	"path/filepath"
	"slices"
	"testing"
)

// TestLoaderSkipsBuildConstrainedFiles loads the buildtags fixture and
// pins its exact file set: ignored.go and foreign_plan9.go do not
// type-check, so a clean load proves both were left out, and unix.go
// must be kept wherever the unix build tag holds.
func TestLoaderSkipsBuildConstrainedFiles(t *testing.T) {
	dir := filepath.Join("testdata", "src", "buildtags")
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("fixture did not type-check (an excluded file was loaded?): %v", pkg.TypeErrors)
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, filepath.Base(pkg.Fset.File(f.Pos()).Name()))
	}
	want := []string{"buildtags.go"}
	if unix, err := build.Default.MatchFile(dir, "unix.go"); err != nil {
		t.Fatal(err)
	} else if unix {
		want = append(want, "unix.go")
	} else {
		t.Log("not a unix host: the unix.go check is skipped")
	}
	if !slices.Equal(got, want) {
		t.Errorf("loaded files %v, want %v", got, want)
	}
	if pkg.Types.Name() != "buildtags" {
		t.Errorf("package name = %q, want buildtags", pkg.Types.Name())
	}
}
