package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// specPath is BENCHMARK.json, seen from the benchmark's directory.
const specPath = "../BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json that compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare reads the untraced result lines of parent and change runs, one
// file <workload>.jsonl per side with one line per run, pairs the runs in
// file order, and prints a verdict for each workload and end-to-end metric.
func compare(parentDir, changeDir string, out io.Writer) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	fmt.Fprintf(out, "%-15s %-18s %12s %25s %12s %25s %5s  %s\n",
		"workload", "metric", "parent p50", "parent [q1, q3]", "change p50", "change [q1, q3]", "wins", "verdict")
	for _, w := range spec.Workloads {
		parent, err := readRuns(filepath.Join(parentDir, w.Name+".jsonl"))
		if err != nil {
			return err
		}
		change, err := readRuns(filepath.Join(changeDir, w.Name+".jsonl"))
		if err != nil {
			return err
		}
		for _, m := range spec.EndToEnd {
			pv, cv := values(parent, m.Name), values(change, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				return fmt.Errorf("%s: no %s values on one side", w.Name, m.Name)
			}
			wins, v := verdict(pv, cv, m.Better == "lower", m.Bound)
			fmt.Fprintf(out, "%-15s %-18s %12.5g [%11.5g, %11.5g] %12.5g [%11.5g, %11.5g] %5.2f  %s\n",
				w.Name, m.Name, quantile(pv, 0.5), quantile(pv, 0.25), quantile(pv, 0.75),
				quantile(cv, 0.5), quantile(cv, 0.25), quantile(cv, 0.75), wins, v)
		}
	}
	return nil
}

// readRuns reads the result lines of a file; other lines are skipped, so
// a run's whole output may be appended to it.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err == nil && r.Metrics != nil {
			rs = append(rs, r)
		}
	}
	return rs, sc.Err()
}

func values(rs []result, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// verdict judges change runs against parent runs of one metric:
//
//   - "unresolved" when the parent's quartile spread exceeds bound (as a
//     share of its median), unless every change run beats every parent run;
//   - "gain" when the change wins at least 9 in 10 pairs (ties count for
//     neither side) and its median beats the parent's by more than the
//     parent's quartile spread;
//   - "regression" when the change's median is worse by more than bound;
//   - "no regression" otherwise.
//
// wins is the fraction of pairs the change won.
func verdict(parent, change []float64, lowerBetter bool, bound float64) (wins float64, v string) {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	pairs := min(len(parent), len(change))
	won := 0
	for i := range pairs {
		if better(change[i], parent[i]) {
			won++
		}
	}
	wins = float64(won) / float64(pairs)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	pm, cm := quantile(parent, 0.5), quantile(change, 0.5)
	iqr := quantile(parent, 0.75) - quantile(parent, 0.25)
	gain := cm - pm // how much better the change's median is
	if lowerBetter {
		gain = -gain
	}
	switch {
	case iqr > bound*pm && !allBetter:
		return wins, "unresolved"
	case wins >= 0.9 && gain > iqr:
		return wins, "gain"
	case -gain > bound*pm:
		return wins, "regression"
	default:
		return wins, "no regression"
	}
}
