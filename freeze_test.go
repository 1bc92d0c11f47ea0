package spawnsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spawnsim/internal/faults"
	"spawnsim/internal/harness"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/freeze.json from this tree's runs")

// freezePath holds the pinned digests of TestProfileFreeze.
var freezePath = filepath.Join("testdata", "freeze.json")

// freezeCell is one pinned run: a benchmark under a scheme, optionally
// under a chaos plan (a faults.Parse specification and its seed).
type freezeCell struct {
	bench, scheme string
	chaos         string
	seed          uint64
}

func (c freezeCell) name() string {
	if c.chaos == "" {
		return c.bench + "/" + c.scheme
	}
	return fmt.Sprintf("%s/%s/chaos %s seed %d", c.bench, c.scheme, c.chaos, c.seed)
}

// freezeDigests are the pinned digests of one cell: the sha256 of the
// canonical Result JSON, the JSONL trace stream, the metrics snapshot
// JSON and the profile report JSON. Result, metrics and profile are
// hashed as json.Marshal encodes them, the encoding bench/ hashes too.
type freezeDigests struct {
	Run     string `json:"run"`
	Result  string `json:"result"`
	Trace   string `json:"trace"`
	Metrics string `json:"metrics"`
	Profile string `json:"profile"`
}

// freezeCells lists the pinned runs: every registry benchmark and the
// Figure 21 extra (SA-elegans) under every single-run scheme, the
// Offline-Search sweep on two benchmarks, and chaos plans over several
// launch shapes. MM-small under SPAWN with the mild plan is the cell
// where injected back-pressure stalls the GMU.
func freezeCells() []freezeCell {
	var cells []freezeCell
	for _, b := range append(workloads.Names(), "SA-elegans") {
		for _, s := range []string{harness.SchemeFlat, harness.SchemeBaseline, harness.SchemeSpawn, harness.SchemeDTBL} {
			cells = append(cells, freezeCell{bench: b, scheme: s})
		}
	}
	return append(cells,
		freezeCell{bench: "MM-small", scheme: harness.SchemeOffline},
		freezeCell{bench: "AMR", scheme: harness.SchemeOffline},
		freezeCell{bench: "MM-small", scheme: harness.SchemeSpawn, chaos: "mild", seed: 11},
		freezeCell{bench: "BFS-citation", scheme: harness.SchemeBaseline, chaos: "mild", seed: 3},
		freezeCell{bench: "AMR", scheme: harness.SchemeDTBL, chaos: "hwq=0.2,dram=0.1:200", seed: 5},
		freezeCell{bench: "JOIN-gaussian", scheme: harness.SchemeSpawn, chaos: "transit=0.3:2000,smx=0.1", seed: 7},
	)
}

// TestProfileFreeze is the golden table: it pins the digests of the
// Result, trace, metrics snapshot and profile report of every freeze
// cell, keyed by the cell's result-store spec key, so a change to the
// simulator or to any observer that moves one simulated, traced,
// counted or attributed value fails the tier-1 suite. Engine parity
// cannot catch such a change in code both engines share. Every cell
// must also complete with cycles and an occupancy in (0, 1]. Rewrite
// the digests only for an intended change, with a CHANGES.md line
// saying why: go test -run TestProfileFreeze -update .
func TestProfileFreeze(t *testing.T) {
	cells := freezeCells()
	specs := make([]harness.Spec, len(cells))
	traces := make([]hash.Hash, len(cells))
	sinks := make([]*trace.JSONL, len(cells))
	for i, c := range cells {
		traces[i] = sha256.New()
		sinks[i] = trace.NewJSONL(traces[i])
		specs[i] = harness.Spec{
			Benchmark:  c.bench,
			Scheme:     c.scheme,
			Profile:    &profile.Options{},
			Metrics:    metrics.NewRegistry(),
			TraceSinks: []trace.Sink{sinks[i]},
		}
		if c.chaos != "" {
			plan, err := faults.Parse(c.chaos, c.seed)
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
	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	got := map[string]freezeDigests{}
	for i, c := range cells {
		if err := sinks[i].Close(); err != nil {
			t.Fatal(err)
		}
		got[outs[i].Key()] = freezeDigests{
			Run:     c.name(),
			Result:  digest(outs[i].Result),
			Trace:   hex.EncodeToString(traces[i].Sum(nil)),
			Metrics: digest(outs[i].Metrics),
			Profile: digest(outs[i].Profile),
		}
		if r := outs[i].Result; r.Cycles == 0 || r.Occupancy <= 0 || r.Occupancy > 1 {
			t.Errorf("%s: %d cycles, occupancy %v; want cycles and an occupancy in (0, 1]", c.name(), r.Cycles, r.Occupancy)
		}
		if c.chaos == "mild" && c.seed == 11 && outs[i].Profile.Components[profile.CompGMU].StallBackpressure == 0 {
			t.Errorf("%s: the GMU never stalled on back-pressure; the cell no longer covers that state", c.name())
		}
	}
	if len(got) != len(cells) {
		t.Fatalf("%d cells share %d spec keys", len(cells), len(got))
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
	var want map[string]freezeDigests
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
			t.Errorf("%s: digests %+v, pinned %+v", k, got[k], want[k])
		}
	}
}
