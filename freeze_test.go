package spawnsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spawnsim/internal/faults"
	"spawnsim/internal/harness"
	"spawnsim/internal/profile"
)

var update = flag.Bool("update", false, "rewrite testdata/freeze.json from this tree's runs")

// freezePath holds the pinned digests of TestProfileFreeze.
var freezePath = filepath.Join("testdata", "freeze.json")

// freezeCell is one pinned run: a benchmark under a scheme, optionally
// under a chaos plan.
type freezeCell struct {
	bench, scheme string
	chaos         bool // the mild plan at seed 11
}

func (c freezeCell) name() string {
	n := c.bench + "/" + c.scheme
	if c.chaos {
		n += "/chaos-mild-11"
	}
	return n
}

// freezeCells lists the pinned runs: four benchmarks with different
// launch shapes under every single-run scheme, plus MM-small under SPAWN
// with chaos, the cell where injected back-pressure stalls the GMU.
func freezeCells() []freezeCell {
	var cells []freezeCell
	for _, b := range []string{"AMR", "BFS-citation", "JOIN-gaussian", "MM-small"} {
		for _, s := range []string{"flat", "baseline", "spawn", "dtbl"} {
			cells = append(cells, freezeCell{bench: b, scheme: s})
		}
	}
	return append(cells, freezeCell{bench: "MM-small", scheme: "spawn", chaos: true})
}

// TestProfileFreeze pins the sha256 of the canonical Result JSON and of
// the profile report of every freeze cell, so a change to the simulator
// or to the cycle profiler that moves any simulated or attributed count
// fails the tier-1 suite. Engine parity cannot catch a profiler change,
// since both engines share the profiler. Rewrite the digests only for an
// intended change of the model: go test -run TestProfileFreeze -update .
func TestProfileFreeze(t *testing.T) {
	cells := freezeCells()
	specs := make([]harness.Spec, len(cells))
	for i, c := range cells {
		specs[i] = harness.Spec{Benchmark: c.bench, Scheme: c.scheme, Profile: &profile.Options{}}
		if c.chaos {
			plan, err := faults.Parse("mild", 11)
			if err != nil {
				t.Fatal(err)
			}
			specs[i].FaultPlan = &plan
		}
	}
	outs, err := (&harness.Pool{}).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for i, c := range cells {
		for part, v := range map[string]any{"result": outs[i].Result, "profile": outs[i].Profile} {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[c.name()+"/"+part] = hex.EncodeToString(sum[:])
		}
		if c.chaos && outs[i].Profile.Components[profile.CompGMU].StallBackpressure == 0 {
			t.Errorf("%s: the GMU never stalled on back-pressure; the cell no longer covers that state", c.name())
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(freezePath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(freezePath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %q, pinned %q", k, got[k], want[k])
		}
	}
}
