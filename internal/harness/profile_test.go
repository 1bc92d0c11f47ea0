package harness

import (
	"bytes"
	"sync"
	"testing"

	"spawnsim/internal/faults"
	"spawnsim/internal/profile"
)

// profileBatchSpecs is a small mixed batch: two benchmarks, two schemes,
// chaos on one of them, every spec profiled.
func profileBatchSpecs() []Spec {
	plan := faults.Mild(7)
	return []Spec{
		{Benchmark: "MM-small", Scheme: SchemeSpawn, Profile: &profile.Options{}},
		{Benchmark: "MM-small", Scheme: SchemeBaseline, Profile: &profile.Options{}},
		{Benchmark: "BFS-citation", Scheme: SchemeSpawn, Profile: &profile.Options{}, FaultPlan: &plan, Retries: 2},
		{Benchmark: "BFS-citation", Scheme: SchemeFlat, Profile: &profile.Options{}},
	}
}

// profileReports runs the batch at the given worker count and returns
// each outcome's serialized profile report, in submission order.
func profileReports(t *testing.T, workers int) [][]byte {
	t.Helper()
	outs, err := (&Pool{Workers: workers}).Run(profileBatchSpecs())
	if err != nil {
		t.Fatalf("pool run (workers=%d): %v", workers, err)
	}
	reps := make([][]byte, len(outs))
	for i, o := range outs {
		if o.Profile == nil {
			t.Fatalf("outcome %d has no profile report", i)
		}
		var buf bytes.Buffer
		if err := o.Profile.WriteJSON(&buf); err != nil {
			t.Fatalf("serializing report %d: %v", i, err)
		}
		reps[i] = buf.Bytes()
	}
	return reps
}

// TestPoolProfilesWorkerCountInvariant is the profiler's half of the
// pool determinism contract: every run's serialized report is
// byte-identical at any worker count.
func TestPoolProfilesWorkerCountInvariant(t *testing.T) {
	serial := profileReports(t, 1)
	parallel := profileReports(t, 4)
	for i := range serial {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("profile report %d differs between Workers=1 and Workers=4:\nserial:   %s\nparallel: %s",
				i, serial[i], parallel[i])
		}
	}
}

// TestPoolProgressCounts checks the sweep-progress satellite at both
// worker counts: every spec reports exactly one start and one
// completion, completions count monotonically up to the batch size, and
// callbacks never run concurrently (the collector serializes them —
// the mutex here is only for the test's own visibility guarantees).
func TestPoolProgressCounts(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		var events []PoolProgress
		p := &Pool{
			Workers: workers,
			Progress: func(pr PoolProgress) {
				mu.Lock()
				events = append(events, pr)
				mu.Unlock()
			},
		}
		specs := profileBatchSpecs()
		if _, err := p.Run(specs); err != nil {
			t.Fatalf("pool run (workers=%d): %v", workers, err)
		}
		mu.Lock()
		got := append([]PoolProgress(nil), events...)
		mu.Unlock()
		if len(got) != 2*len(specs) {
			t.Fatalf("workers=%d: %d progress events, want %d", workers, len(got), 2*len(specs))
		}
		starts, dones := map[string]int{}, map[string]int{}
		lastDone := 0
		for _, e := range got {
			if e.Total != len(specs) {
				t.Errorf("workers=%d: event total %d, want %d", workers, e.Total, len(specs))
			}
			key := e.Benchmark + "/" + e.Scheme
			if e.Started {
				starts[key]++
				continue
			}
			dones[key]++
			if e.Done != lastDone+1 {
				t.Errorf("workers=%d: completion Done jumped %d -> %d", workers, lastDone, e.Done)
			}
			lastDone = e.Done
		}
		if lastDone != len(specs) {
			t.Errorf("workers=%d: final Done = %d, want %d", workers, lastDone, len(specs))
		}
		for _, s := range specs {
			key := s.Benchmark + "/" + s.Scheme
			if starts[key] != 1 || dones[key] != 1 {
				t.Errorf("workers=%d: spec %s saw %d starts / %d completions, want 1/1",
					workers, key, starts[key], dones[key])
			}
		}
	}
}

// TestProfileSurvivesOfflineSweep: an offline spec's winning outcome
// carries the winner's own profile report.
func TestProfileSurvivesOfflineSweep(t *testing.T) {
	p := &Pool{Workers: 2}
	out, err := p.RunSpec(Spec{
		Benchmark: "MM-small",
		Scheme:    SchemeOffline,
		Profile:   &profile.Options{},
	})
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	if out.Profile == nil {
		t.Fatal("offline winner has no profile report")
	}
	if out.Profile.Ticked == 0 {
		t.Error("winner's profile saw no ticks")
	}
}
