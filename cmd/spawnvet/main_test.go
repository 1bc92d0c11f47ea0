package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spawnsim/internal/analysis"
)

// stage writes src as the only file of a fresh underscore-prefixed
// directory inside this package: the directory stays inside the module,
// so the loader accepts it, while ./... patterns and the go tool skip it.
func stage(t *testing.T, src string) string {
	t.Helper()
	dir, err := os.MkdirTemp(".", "_spawnvet")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	if err := os.WriteFile(filepath.Join(dir, "staged.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodes pins the exit-status contract CI relies on: 0 clean,
// 1 with findings, 2 on a usage or load error. A package that does not
// type-check is no load error: it is analyzed best-effort.
func TestExitCodes(t *testing.T) {
	clean := stage(t, "package clean\n\nfunc Add(a, b int) int { return a + b }\n")
	dirty := stage(t, `package dirty

import "fmt"

func Wrap(err error) error { return fmt.Errorf("wrap: %v", err) }
`)
	broken := stage(t, `package broken

import "fmt"

func Wrap(err error) error { undefinedHelper(); return fmt.Errorf("wrap: %v", err) }
`)
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring of stdout
		stderr string // substring of stderr
	}{
		{"clean package", []string{clean}, 0, "", ""},
		{"findings", []string{dirty}, 1, "staged.go:5:60: [errwrap] fmt.Errorf flattens an error with %v", ""},
		{"type errors", []string{broken}, 1, "staged.go:5:79: [errwrap] fmt.Errorf flattens an error with %v", "type error (analysis may be incomplete)"},
		{"unknown flag", []string{"-fix", clean}, 2, "", "flag provided but not defined: -fix"},
		{"missing directory", []string{filepath.Join(clean, "absent")}, 2, "", "spawnvet:"},
		{"outside the module", []string{os.TempDir()}, 2, "", "outside module"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout, stderr)
			}
			if tc.code == 0 && stdout != "" {
				t.Errorf("clean run printed findings:\n%s", stdout)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
		})
	}
}

// TestList pins -list: one line per analyzer, in suite order, each
// starting with the name a //spawnvet:allow directive must use.
func TestList(t *testing.T) {
	code, stdout, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(stdout, "\n"), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if want := analysis.AnalyzerNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("-list names = %v, want %v", names, want)
	}
}
