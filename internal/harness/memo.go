package harness

import (
	"context"
	"encoding/json"

	"spawnsim/internal/config"
	"spawnsim/internal/faults"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/sim"
	"spawnsim/internal/store"
)

// This file binds the harness to the content-addressed result store
// (internal/store): the canonical spec hash, the serialized Outcome
// schema, and the memoized run path the Pool routes every sweep point
// through. Because each run is a pure function of its resolved spec
// (the determinism contract, DESIGN.md §5), a stored Outcome keyed by
// that hash replays byte-identically; resumability falls out.

// specKeyVersion names the canonicalization. Bump it whenever the key
// schema or the stored-outcome schema changes meaning: old entries then
// miss by construction instead of replaying under a stale
// interpretation.
const specKeyVersion = "spawnsim-spec-v1"

// storedVersion gates the serialized Outcome schema.
const storedVersion = 1

// specKeyDesc is the canonical description hashed into a spec's content
// address. Field order is fixed and every field is a value the
// simulation result depends on; observer/output knobs (metrics
// registries, trace sinks, heartbeats, observers) and abort knobs
// (deadlines, the stall window, tolerance) are deliberately absent — they
// shape how a run is watched or cut short, never what a completed run
// computes.
type specKeyDesc struct {
	Benchmark       string           `json:"benchmark"`
	Scheme          string           `json:"scheme"`
	PolicyTag       string           `json:"policy_tag,omitempty"`
	ChildCTASize    int              `json:"child_cta_size,omitempty"`
	StreamMode      int              `json:"stream_mode,omitempty"`
	SampleInterval  uint64           `json:"sample_interval,omitempty"`
	MaxCycles       uint64           `json:"max_cycles,omitempty"`
	CheckInvariants bool             `json:"check_invariants,omitempty"`
	Retries         int              `json:"retries,omitempty"`
	Config          config.GPU       `json:"config"`
	FaultPlan       *faults.Plan     `json:"fault_plan,omitempty"`
	Profile         *profile.Options `json:"profile,omitempty"`
}

// specKey returns the spec's content address, or "" when the spec is
// uncacheable: a MakePolicy closure without a PolicyTag has behavior
// the harness cannot hash. Call only after defaults are applied — the
// key must cover the spec as it will actually run.
func specKey(s *Spec) string {
	if s.MakePolicy != nil && s.PolicyTag == "" {
		return ""
	}
	plan := s.FaultPlan
	if plan != nil && plan.Zero() {
		plan = nil
	}
	key, err := store.Key(specKeyVersion, specKeyDesc{
		Benchmark:       s.Benchmark,
		Scheme:          s.Scheme,
		PolicyTag:       s.PolicyTag,
		ChildCTASize:    s.ChildCTASize,
		StreamMode:      int(s.StreamMode),
		SampleInterval:  s.SampleInterval,
		MaxCycles:       s.MaxCycles,
		CheckInvariants: s.CheckInvariants,
		Retries:         s.Retries,
		Config:          s.config(),
		FaultPlan:       plan,
		Profile:         s.Profile,
	})
	if err != nil {
		return ""
	}
	return key
}

// Key returns the content address of the spec the outcome ran under
// (its result-store key), or "" when the spec is uncacheable.
func (o *Outcome) Key() string { return specKey(&o.Spec) }

// storedOutcome is the serialized form of a successful Outcome: the
// pieces a replay cannot reconstruct from the spec. Traces are never
// stored — specs with trace sinks are replay-unfit (see replayFit)
// because a trace is a live stream, not a result.
type storedOutcome struct {
	V              int               `json:"v"`
	Threshold      int               `json:"threshold"`
	Result         *sim.Result       `json:"result"`
	TotalWork      int64             `json:"total_work"`
	Metrics        *metrics.Snapshot `json:"metrics,omitempty"`
	Profile        *profile.Report   `json:"profile,omitempty"`
	FaultsInjected uint64            `json:"faults_injected"`
}

// encodeOutcome serializes a successful outcome for the store.
func encodeOutcome(out *Outcome) ([]byte, error) {
	return json.Marshal(storedOutcome{
		V:              storedVersion,
		Threshold:      out.Threshold,
		Result:         out.Result,
		TotalWork:      out.TotalWork,
		Metrics:        out.Metrics,
		Profile:        out.Profile,
		FaultsInjected: out.FaultsInjected,
	})
}

// replayFit reports whether a stored outcome can stand in for running
// the spec live. Specs that stream output (trace sinks) or instrument
// a caller-owned metrics registry need a real simulation; a spec that
// only wants an Outcome — including an observed run whose observer
// needs a metrics snapshot the entry carries — replays.
func replayFit(s *Spec, observed bool, so *storedOutcome) bool {
	if len(s.TraceSinks) > 0 {
		return false
	}
	if s.Metrics != nil {
		return false
	}
	if observed && so.Metrics == nil {
		return false
	}
	if s.Profile != nil && so.Profile == nil {
		return false
	}
	return true
}

// decodeOutcome deserializes a store entry into an Outcome for the
// given spec. Any failure — corrupt JSON, foreign schema version,
// replay-unfit spec — returns false and the caller runs live; a
// damaged entry costs a recomputation, never an error.
func decodeOutcome(s *Spec, observed bool, data []byte) (*Outcome, bool) {
	var so storedOutcome
	if err := json.Unmarshal(data, &so); err != nil {
		return nil, false
	}
	if so.V != storedVersion || so.Result == nil {
		return nil, false
	}
	if !replayFit(s, observed, &so) {
		return nil, false
	}
	return &Outcome{
		Spec:           s.owned(),
		Threshold:      so.Threshold,
		Result:         so.Result,
		TotalWork:      so.TotalWork,
		Metrics:        so.Metrics,
		Profile:        so.Profile,
		FaultsInjected: so.FaultsInjected,
	}, true
}

// runMemo is the single-run path every pool run takes: apply the
// pool's defaults (exactly once), then replay the spec from the result
// store when a fit entry exists, otherwise run live and store a
// successful result. With no store configured it is exactly runSpec.
func (p *Pool) runMemo(ctx context.Context, obs func(*Outcome), spec Spec) (*Outcome, error) {
	// Resolve defaults first: the content address must describe the spec
	// as it will run.
	if p.Defaults != nil {
		p.Defaults(&spec)
	}
	if p.Store == nil {
		return runSpec(ctx, obs, spec)
	}
	key := specKey(&spec)
	if data, ok := p.Store.Get(key); ok {
		if out, ok := decodeOutcome(&spec, obs != nil, data); ok {
			// Observers see replayed outcomes too: a resumed sweep's
			// observer stream covers every point, not just the re-run ones.
			if obs != nil {
				obs(out)
			}
			return out, nil
		}
	}
	out, err := runSpec(ctx, obs, spec)
	// Quarantined outcomes are never stored: their partial results must
	// not replay as if the point had succeeded, and the deterministic
	// failure reproduces identically on resume.
	if err == nil && !out.Quarantined() && key != "" {
		if blob, eerr := encodeOutcome(out); eerr == nil {
			// Best-effort: a store that cannot accept writes degrades
			// resumability, never the run that produced the result.
			_ = p.Store.Put(key, blob)
		}
	}
	return out, err
}
