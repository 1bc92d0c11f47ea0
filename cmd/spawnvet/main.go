// Command spawnvet is the project's static-analysis driver. It loads
// the module with the standard library's parser and type checker (no
// external tooling) and runs twelve analyzers over it: determinism,
// hotpath, invariants, errwrap, metricshygiene, seedtaint, exhaustive,
// units, purity, sharedstate, clockstep, and skipsafe.
//
// Usage:
//
//	spawnvet [-fix] [-list] [./... | dir ...]
//
//	-fix         apply mechanical fixes (%v→%w, sort-before-range),
//	             then re-analyze and report what remains
//	-list        print the available analyzers and exit
//
// A finding is silenced only at its site, by a
// //spawnvet:allow <analyzer> <justification> comment on its line or
// the line above; //spawnvet:hotpath marks a function as a per-cycle
// root for the hotpath analyzer. No other directive exists.
//
// Exit status: 0 when the tree is clean, 1 when diagnostics were
// reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spawnsim/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("spawnvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fix := fs.Bool("fix", false, "apply mechanical fixes, then re-analyze")
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

	if *fix {
		fixed, err := analysis.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, "spawnvet:", err)
			return 2
		}
		for _, f := range fixed {
			fmt.Fprintf(stderr, "spawnvet: fixed %s\n", f)
		}
		// Re-analyze the rewritten tree with a fresh loader.
		diags, err = analyze(patterns, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "spawnvet:", err)
			return 2
		}
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
func analyze(patterns []string, stderr *os.File) ([]analysis.Diagnostic, error) {
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
