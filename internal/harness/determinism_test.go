package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"spawnsim/internal/metrics"
	"spawnsim/internal/trace"
)

// offlineArtifacts runs the Offline-Search sweep on MM-small with full
// observability attached and renders every artifact a sweep harness
// would write to disk: the winning Outcome as JSON, the metrics
// snapshot in both CSV and JSON form, and the winner's trace stream.
func offlineArtifacts(t *testing.T) (outcomeJSON, metricsCSV, metricsJSON, traceJSONL []byte) {
	t.Helper()
	var traceBuf bytes.Buffer
	sink := trace.NewJSONL(&traceBuf)
	reg := metrics.NewRegistry()
	out, err := Run(Spec{
		Benchmark:  "MM-small",
		Scheme:     SchemeOffline,
		Metrics:    reg,
		TraceSinks: []trace.Sink{sink},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("closing trace sink: %v", err)
	}
	if out.Metrics == nil {
		t.Fatal("no metrics snapshot on instrumented sweep outcome")
	}

	oj, err := json.Marshal(out.Result)
	if err != nil {
		t.Fatalf("marshaling outcome result: %v", err)
	}
	var csvBuf, jsonBuf bytes.Buffer
	if err := out.Metrics.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("metrics CSV: %v", err)
	}
	if err := out.Metrics.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	return oj, csvBuf.Bytes(), jsonBuf.Bytes(), traceBuf.Bytes()
}

// TestOfflineSearchArtifactsAreBitIdentical reruns the full sweep and
// compares every emitted artifact byte-for-byte. Nondeterministic map
// iteration anywhere on the sweep, snapshot, CSV, or trace path turns
// this test flaky.
func TestOfflineSearchArtifactsAreBitIdentical(t *testing.T) {
	o1, c1, j1, t1 := offlineArtifacts(t)
	o2, c2, j2, t2 := offlineArtifacts(t)

	if !bytes.Equal(o1, o2) {
		t.Errorf("outcome JSON differs between identical sweeps:\nrun1: %s\nrun2: %s", o1, o2)
	}
	if !bytes.Equal(c1, c2) {
		t.Errorf("metrics CSV differs between identical sweeps:\nrun1: %s\nrun2: %s", c1, c2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("metrics JSON differs between identical sweeps:\nrun1: %s\nrun2: %s", j1, j2)
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("trace JSONL differs between identical sweeps (%d vs %d bytes)", len(t1), len(t2))
	}
}
