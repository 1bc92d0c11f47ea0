package main

import (
	"os"
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
		metricsDumper(dir)(out)
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
