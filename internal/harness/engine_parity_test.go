package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"spawnsim/internal/faults"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/sim"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

// engineArtifacts runs a chaos-enabled Offline-Search sweep on MM-small
// under the given engine with every observer attached, and renders the
// artifacts a sweep harness would write to disk: the winning Result as
// JSON, the metrics snapshot in CSV and JSON form, the winner's full
// trace stream, and the cycle-attribution profile report.
func engineArtifacts(t *testing.T, eng sim.Engine) (resultJSON, metricsCSV, metricsJSON, traceJSONL, profileJSON []byte) {
	t.Helper()
	var traceBuf bytes.Buffer
	sink := trace.NewJSONL(&traceBuf)
	reg := metrics.NewRegistry()
	plan := faults.Mild(11)
	out, err := Run(Spec{
		Benchmark:  "MM-small",
		Scheme:     SchemeOffline,
		Engine:     eng,
		FaultPlan:  &plan,
		Metrics:    reg,
		TraceSinks: []trace.Sink{sink},
		Profile:    &profile.Options{},
	})
	if err != nil {
		t.Fatalf("Run(%v): %v", eng, err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("closing trace sink: %v", err)
	}
	if out.Metrics == nil || out.Profile == nil {
		t.Fatalf("instrumented sweep outcome missing metrics/profile (engine %v)", eng)
	}
	if out.FaultsInjected == 0 {
		t.Fatalf("mild fault plan injected nothing (engine %v): the parity run is not chaos-enabled", eng)
	}

	rj, err := json.Marshal(out.Result)
	if err != nil {
		t.Fatalf("marshaling result: %v", err)
	}
	var csvBuf, jsonBuf, profBuf bytes.Buffer
	if err := out.Metrics.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("metrics CSV: %v", err)
	}
	if err := out.Metrics.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if err := out.Profile.WriteJSON(&profBuf); err != nil {
		t.Fatalf("profile report: %v", err)
	}
	return rj, csvBuf.Bytes(), jsonBuf.Bytes(), traceBuf.Bytes(), profBuf.Bytes()
}

// TestEngineParity is the tentpole gate for the event-wheel core: the
// wheel and the cycle-stepped reference engine must produce
// byte-identical artifacts on a chaos-enabled Offline-Search sweep —
// Result JSON, metrics dumps, the full JSONL trace stream, and the
// profile report (including Ticked/Skipped accounting: the stepped
// engine walks quiet spans cycle-by-cycle but books them identically).
func TestEngineParity(t *testing.T) {
	wr, wc, wj, wt, wp := engineArtifacts(t, sim.EngineWheel)
	sr, sc, sj, st, sp := engineArtifacts(t, sim.EngineStepped)

	if !bytes.Equal(wr, sr) {
		t.Errorf("Result JSON differs between engines:\nwheel:   %s\nstepped: %s", wr, sr)
	}
	if !bytes.Equal(wc, sc) {
		t.Errorf("metrics CSV differs between engines:\nwheel:   %s\nstepped: %s", wc, sc)
	}
	if !bytes.Equal(wj, sj) {
		t.Errorf("metrics JSON differs between engines:\nwheel:   %s\nstepped: %s", wj, sj)
	}
	if !bytes.Equal(wt, st) {
		t.Errorf("trace JSONL differs between engines (%d vs %d bytes)", len(wt), len(st))
	}
	if !bytes.Equal(wp, sp) {
		t.Errorf("profile report differs between engines:\nwheel:   %s\nstepped: %s", wp, sp)
	}
}

// TestEngineParityFig5CSV renders the MM-small Figure 5 sweep CSV under
// both engines through the Pool path (exercising Spec defaults and the
// figure drivers) and compares bytes.
func TestEngineParityFig5CSV(t *testing.T) {
	render := func(eng sim.Engine) []byte {
		t.Helper()
		pool := &Pool{Defaults: func(s *Spec) { s.Engine = eng }}
		r, err := pool.Fig5("MM-small")
		if err != nil {
			t.Fatalf("Fig5(%v): %v", eng, err)
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatalf("Fig5 CSV: %v", err)
		}
		return buf.Bytes()
	}
	w := render(sim.EngineWheel)
	s := render(sim.EngineStepped)
	if !bytes.Equal(w, s) {
		t.Errorf("Fig5 CSV differs between engines:\nwheel:\n%s\nstepped:\n%s", w, s)
	}
}

// TestEngineParityAcrossBenchmarks checks Result parity between the two
// engines on every registry benchmark. Runs are capped at a cycle
// budget to bound suite time — an aborted Result must be identical
// between engines too (the wheel clamps its fast-forward to the budget,
// so even the abort cycle matches). -short keeps only the first three
// benchmarks.
func TestEngineParityAcrossBenchmarks(t *testing.T) {
	names := workloads.Names()
	if len(names) < 13 {
		t.Fatalf("registry has %d benchmarks, want >= 13", len(names))
	}
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func(eng sim.Engine) []byte {
				out, err := Run(Spec{
					Benchmark: name,
					Scheme:    SchemeSpawn,
					Engine:    eng,
					MaxCycles: 400_000,
					Tolerate:  true,
				})
				if err != nil {
					t.Fatalf("%s engine %v: %v", name, eng, err)
				}
				rj, err := json.Marshal(out.Result)
				if err != nil {
					t.Fatal(err)
				}
				return rj
			}
			w := run(sim.EngineWheel)
			s := run(sim.EngineStepped)
			if !bytes.Equal(w, s) {
				t.Errorf("%s: Result diverges between engines:\nwheel:   %s\nstepped: %s", name, w, s)
			}
		})
	}
}

// TestEngineParityChaosMatrix re-drives the 24-combo chaos matrix with
// both engines and requires identical Results and fault counts: the
// wheel's fast-forward must hit every injector epoch boundary the
// stepped engine sees, or a fault window would silently go unconsulted.
func TestEngineParityChaosMatrix(t *testing.T) {
	benches := []string{"MM-small", "Mandel"}
	schemes := []string{SchemeFlat, SchemeBaseline, SchemeSpawn, SchemeDTBL}
	seeds := []uint64{1, 2, 3}
	for _, b := range benches {
		for _, s := range schemes {
			for _, seed := range seeds {
				b, s, seed := b, s, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", b, s, seed), func(t *testing.T) {
					t.Parallel()
					run := func(eng sim.Engine) (string, uint64) {
						spec := chaosSpec(b, s, seed)
						spec.Engine = eng
						out, err := Run(spec)
						if err != nil {
							t.Fatalf("engine %v: %v", eng, err)
						}
						rj, err := json.Marshal(out.Result)
						if err != nil {
							t.Fatal(err)
						}
						return string(rj), out.FaultsInjected
					}
					wr, wf := run(sim.EngineWheel)
					sr, sf := run(sim.EngineStepped)
					if wf != sf {
						t.Errorf("fault counts diverge: wheel %d, stepped %d", wf, sf)
					}
					if wr != sr {
						t.Errorf("Result diverges between engines:\nwheel:   %s\nstepped: %s", wr, sr)
					}
				})
			}
		}
	}
}

// TestEngineParityDTBLDeepDirectQueue runs AMR under DTBL, whose nested
// launches keep over 20k CTA groups resident in the GMU's direct queue
// at once, with the invariant auditor on, and requires byte-identical
// Results from both engines. The chaos-matrix DTBL cases never hold more
// than a few groups.
func TestEngineParityDTBLDeepDirectQueue(t *testing.T) {
	run := func(eng sim.Engine) []byte {
		reg := metrics.NewRegistry()
		out, err := Run(Spec{
			Benchmark:       "AMR",
			Scheme:          SchemeDTBL,
			Engine:          eng,
			CheckInvariants: true,
			Metrics:         reg,
		})
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if peak := out.Metrics.Find("gmu_queued_kernels_peak"); peak == nil || peak.Value < 20000 {
			t.Fatalf("engine %v: peak resident kernels %v, want a direct queue over 20k deep", eng, peak)
		}
		rj, err := json.Marshal(out.Result)
		if err != nil {
			t.Fatal(err)
		}
		return rj
	}
	w := run(sim.EngineWheel)
	s := run(sim.EngineStepped)
	if !bytes.Equal(w, s) {
		t.Errorf("Result diverges between engines:\nwheel:   %s\nstepped: %s", w, s)
	}
}
