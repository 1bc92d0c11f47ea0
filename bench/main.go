// Command bench is spawnsim's benchmark. It generates Table I inputs from
// a seed, runs one workload (a launch scheme over a fixed benchmark list)
// through the layers' public APIs, checks every simulated result, and
// prints one JSON line with the end-to-end metrics or, with -trace 1, the
// per-layer metrics. See README.md for the workloads and metrics.
//
//	bash bench/run.sh -workload parent-only -seed 100 -seconds 16 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
)

// goldenPath holds the sha256 digests of every op at the default seed.
const goldenPath = "golden.json"

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "input seed base: Table I slot k gets seed+k")
	seconds := fs.Int("seconds", 16, "timed passes fill about this many seconds on the reference host")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	update := fs.Bool("update-golden", false, "rewrite "+goldenPath+" from one pass of every workload at the default seed")
	cmp := fs.Bool("compare", false, "compare the runs in two directories: -compare <parent> <change>")
	baseline := fs.String("baseline", "", "run every workload untraced and traced, write the results and the host to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *update:
		return updateGolden()
	case *cmp:
		if fs.NArg() != 2 {
			return errors.New("-compare wants two directories: parent runs, change runs")
		}
		return compare(fs.Arg(0), fs.Arg(1), stdout)
	case *baseline != "":
		return writeBaseline(*baseline, *seed, *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	golden, err := readGolden()
	if err != nil {
		return err
	}
	clock, err := newHostClock()
	if err != nil {
		return err
	}
	r := newRunner(w, golden, clock)
	var ms map[string]metric
	switch *traced {
	case 0:
		ms, err = runE2E(r, *seed, *seconds)
	case 1:
		ms, err = runTraced(r, *seed, *seconds)
	default:
		err = fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(os.Stderr, "  %-26s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	return json.NewEncoder(stdout).Encode(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   ms,
	})
}

func readGolden() (map[string]string, error) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var g map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// updateGolden records the digests of one pass of every workload at the
// default seed. A changed digest is a changed simulated result, so every
// rewrite needs a line in CHANGES.md saying why.
func updateGolden() error {
	golden := map[string]string{}
	for i := range suite {
		w := &suite[i]
		r := newRunner(w, nil, nil)
		var err error
		_, perr := r.pass(defaultSeed, hooks{observe: w.observed}, nil, func(p *prepared, o *opOut) {
			var ds map[string]string
			if ds, err = digests(w.name, p.name, o); err == nil {
				maps.Copy(golden, ds)
			}
		})
		if err = errors.Join(perr, err); err != nil {
			return err
		}
		if r.failed > 0 {
			return errors.New(w.name + ": ops failed, golden not written")
		}
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
