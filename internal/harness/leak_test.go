package harness

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// goroutineBaseline lets the runtime settle and returns the goroutine
// count the leak tests must return to.
func goroutineBaseline() int {
	for i := 0; i < 10; i++ {
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitForGoroutines polls until the live goroutine count is back at the
// baseline (small slack for runtime-owned helpers), dumping all stacks
// on timeout so a leaked worker is identifiable.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(15 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolLeakOnCancellation proves every worker exits once the batch
// context is canceled mid-sweep: the pool returns only after all of its
// goroutines are joined, so the count must fall straight back to the
// baseline.
func TestPoolLeakOnCancellation(t *testing.T) {
	baseline := goroutineBaseline()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed int32
	p := &Pool{
		Workers: 4,
		Context: ctx,
		Observer: func(o *Outcome) {
			if atomic.AddInt32(&completed, 1) == 1 {
				cancel() // first completion pulls the plug mid-batch
			}
		},
	}
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Benchmark: "BFS-graph500", Scheme: SchemeFlat}
	}
	p.Sweep(specs)

	waitForGoroutines(t, baseline)
}

// TestPoolLeakOnFirstHardError proves the fail-fast path joins
// everything too: a poisoned spec cancels the batch, and no worker
// goroutine survives the early return.
func TestPoolLeakOnFirstHardError(t *testing.T) {
	baseline := goroutineBaseline()

	specs := []Spec{
		{Benchmark: "MM-small", Scheme: SchemeFlat},
		{Benchmark: "no-such-benchmark", Scheme: SchemeFlat},
		{Benchmark: "MM-small", Scheme: SchemeBaseline},
		{Benchmark: "MM-small", Scheme: SchemeSpawn},
		{Benchmark: "BFS-graph500", Scheme: SchemeFlat},
		{Benchmark: "BFS-graph500", Scheme: SchemeSpawn},
	}
	_, err := (&Pool{Workers: 4}).Run(specs)
	if err == nil || !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Fatalf("poisoned batch error = %v, want unknown-benchmark failure", err)
	}

	waitForGoroutines(t, baseline)
}
