package harness

import (
	"testing"

	"spawnsim/internal/metrics"
	"spawnsim/internal/sim"
	"spawnsim/internal/trace"
)

func TestSpecMetricsSnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	out, err := Run(Spec{Benchmark: "MM-small", Scheme: SchemeSpawn, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics == nil {
		t.Fatal("no metrics snapshot on outcome")
	}
	if out.Metrics.Cycle != uint64(out.Result.Cycles) {
		t.Errorf("snapshot cycle = %d, want %d", out.Metrics.Cycle, out.Result.Cycles)
	}
	if m := out.Metrics.Find("sim_cycle"); m == nil || m.Value != float64(out.Result.Cycles) {
		t.Errorf("sim_cycle = %+v, want %d", m, out.Result.Cycles)
	}
	if m := out.Metrics.Find("smx_ctas_placed", "smx", "0"); m == nil {
		t.Error("missing per-SMX placement counter")
	}
}

func TestRunWithoutMetricsHasNoSnapshot(t *testing.T) {
	out, err := Run(Spec{Benchmark: "MM-small", Scheme: SchemeFlat})
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics != nil {
		t.Error("metrics snapshot present without a registry")
	}
}

func TestRunObserverSeesEveryRun(t *testing.T) {
	var seen []*Outcome
	p := &Pool{Workers: 1, Observer: func(o *Outcome) { seen = append(seen, o) }}
	out, err := p.RunSpec(Spec{Benchmark: "MM-small", Scheme: SchemeOffline})
	if err != nil {
		t.Fatal(err)
	}
	// The sweep visits several thresholds; each run gets an observer call
	// with an auto-created registry snapshot.
	if len(seen) < 2 {
		t.Fatalf("observer saw %d runs, want the whole sweep", len(seen))
	}
	for _, o := range seen {
		if o.Metrics == nil {
			t.Fatalf("observed run %s/%s lacks a metrics snapshot", o.Spec.Benchmark, o.Spec.Scheme)
		}
	}
	if out.Result.Cycles == 0 {
		t.Error("offline search returned zero cycles")
	}
}

func TestOfflineSearchAttachesObservability(t *testing.T) {
	reg := metrics.NewRegistry()
	sink := trace.New(64) // Ring implements Sink
	out, err := Run(Spec{
		Benchmark:  "MM-small",
		Scheme:     SchemeOffline,
		Metrics:    reg,
		TraceSinks: []trace.Sink{sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics == nil {
		t.Fatal("offline search outcome lacks metrics")
	}
	// The snapshot must describe exactly the winning re-run: its cycle
	// count matches the returned result, and the ring saw events.
	if out.Metrics.Cycle != uint64(out.Result.Cycles) {
		t.Errorf("snapshot cycle = %d, want winner's %d", out.Metrics.Cycle, out.Result.Cycles)
	}
	if sink.Total() == 0 {
		t.Error("trace sink saw no events")
	}
	if out.Spec.Scheme != SchemeOffline {
		t.Errorf("scheme = %q, want %q", out.Spec.Scheme, SchemeOffline)
	}
}

func TestSpecHeartbeat(t *testing.T) {
	var calls int
	var last sim.Progress
	out, err := Run(Spec{
		Benchmark:      "MM-small",
		Scheme:         SchemeBaseline,
		Heartbeat:      func(p sim.Progress) { calls++; last = p },
		HeartbeatEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("heartbeat never fired")
	}
	if last.Cycle == 0 || last.Cycle > out.Result.Cycles {
		t.Errorf("last heartbeat cycle = %d, run ended at %d", last.Cycle, out.Result.Cycles)
	}
}
