// Command spawnvet is the project's static-analysis driver. It loads
// the module through the go command (`go list` names each package's
// files and builds the standard library's export data), type-checks it
// with the standard library's parser and type checker (no external
// tooling), and runs the analyzers `spawnvet -list` prints:
// determinism, hotpath, invariants, errwrap, metrics, seedtaint,
// exhaustive, units, purity, sharedstate, clockstep, and skipsafe.
//
// Usage:
//
//	spawnvet [-list] [./... | dir ...]
//
//	-list        print the available analyzers and exit
//
// Each finding's message says what to rewrite. A finding is silenced
// only at its site, by a //spawnvet:allow <analyzer> <justification>
// comment on its line or the line above; //spawnvet:hotpath marks a
// function as a per-cycle root for the hotpath analyzer. No other
// directive exists.
//
// Exit status: 0 when the tree is clean, 1 when diagnostics were
// reported, 2 on usage or load errors. A package that does not
// type-check is analyzed best-effort, its type errors on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spawnsim/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spawnvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := analyze(patterns, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "spawnvet:", err)
		return 2
	}

	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// analyze loads the packages matched by patterns and runs every
// analyzer. Patterns are "./..." (the whole module) or directories.
func analyze(patterns []string, stderr io.Writer) ([]analysis.Diagnostic, error) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, err
	}

	var pkgs []*analysis.Package
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, all...)
		default:
			p, err := loader.LoadDir(strings.TrimSuffix(pat, "/..."))
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, p)
		}
	}

	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			fmt.Fprintf(stderr, "spawnvet: %s: type error (analysis may be incomplete): %v\n", p.Path, te)
		}
	}
	return analysis.Run(pkgs, analysis.Analyzers()), nil
}
