package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/harness"
	"spawnsim/internal/metrics"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim/kernel"
)

// TestMetricsDumpNames pins the dump file names: a scheme spec is named
// by its scheme, a MakePolicy spec by its PolicyTag (the ablation
// variants), and an untagged MakePolicy spec, which has no store key,
// by a fixed label without a key suffix.
func TestMetricsDumpNames(t *testing.T) {
	flat := func(config.GPU) kernel.Policy { return runtime.Flat{} }
	cases := []struct {
		spec  harness.Spec
		stem  string
		keyed bool
	}{
		{harness.Spec{Benchmark: "MM-small", Scheme: "threshold:512"}, "metrics-MM-small-threshold-512", true},
		{harness.Spec{Benchmark: "MM-small", PolicyTag: "spawn-ablation:coldcap-off", MakePolicy: flat},
			"metrics-MM-small-spawn-ablation-coldcap-off", true},
		{harness.Spec{Benchmark: "MM-small", MakePolicy: flat}, "metrics-MM-small-custom-policy", false},
	}
	for _, c := range cases {
		dir := t.TempDir()
		out := &harness.Outcome{Spec: c.spec, Metrics: &metrics.Snapshot{}}
		d := &metricsDumper{dir: dir}
		d.observe(out)
		if err := d.takeErr(); err != nil {
			t.Fatalf("%s: %v", c.stem, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("%s: dumped %d files, want 1", c.stem, len(entries))
		}
		want := c.stem + ".json"
		if c.keyed {
			want = c.stem + "-" + out.Key()[:12] + ".json"
		}
		if got := entries[0].Name(); got != want {
			t.Errorf("dump named %q, want %q", got, want)
		}
	}
}

// TestMetricsDumpFailureFailsExperiment: a snapshot that cannot be
// written fails the experiment whose run produced it, so the command
// exits 1 instead of 0 with a hole in the dump. A directory sitting at
// the target file name makes the write fail even for root.
func TestMetricsDumpFailureFailsExperiment(t *testing.T) {
	spec := harness.Spec{Benchmark: "MM-small", Scheme: harness.SchemeFlat}
	dir := t.TempDir()
	target := "metrics-MM-small-flat-" + (&harness.Outcome{Spec: spec}).Key()[:12] + ".json"
	if err := os.Mkdir(filepath.Join(dir, target), 0o755); err != nil {
		t.Fatal(err)
	}
	dump := &metricsDumper{dir: dir}
	pool := &harness.Pool{Workers: 1, Observer: dump.observe}
	exp := harness.Experiment{ID: "one-run", Run: func(p *harness.Pool, _ *harness.Memo, _ string) (*harness.Output, error) {
		if _, err := p.RunSpec(spec); err != nil {
			return nil, err
		}
		return &harness.Output{}, nil
	}}
	var memo harness.Memo
	err := run(pool, &memo, dump, exp, "", "")
	if err == nil || !strings.Contains(err.Error(), target) {
		t.Fatalf("run = %v, want the failed write of %s", err, target)
	}
	if code := harness.ExitCode(err); code != 1 {
		t.Errorf("ExitCode = %d, want 1", code)
	}
	// The error belongs to that experiment alone: the next one that
	// dumps nothing new succeeds.
	if err := run(pool, &memo, dump, harness.Experiment{ID: "none", Run: func(*harness.Pool, *harness.Memo, string) (*harness.Output, error) {
		return &harness.Output{}, nil
	}}, "", ""); err != nil {
		t.Errorf("next experiment: %v", err)
	}
}
