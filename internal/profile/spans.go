// Kernel-lifecycle span assembly: the Profile implements trace.Sink and
// folds the existing event stream into per-stage latency aggregates, so
// span attribution never changes what the simulator emits — the same
// bytes reach every other sink with profiling on or off.
//
// A span covers one kernel: submitted -> arrived (launch transit),
// arrived -> first CTA placed (HWQ residency / queueing), first CTA
// placed -> completed (execution). Dispatch and first-warp issue
// coincide in this simulator — SMX.Place marks the warps ready at the
// placement cycle — so the dispatch->first-warp stage would always be
// zero and is folded into execution.
package profile

import (
	"spawnsim/internal/trace"
)

// LaunchKind is the policy-decision class that created a kernel.
type LaunchKind uint8

const (
	// KindHost: submitted by the host (no policy decision).
	KindHost LaunchKind = iota
	// KindDevice: a device-side child launched as a full kernel
	// (policy action LaunchKernel).
	KindDevice
	// KindDTBL: a DTBL aggregated CTA group (policy action LaunchCTAs),
	// bypassing the HWQs through the direct queue.
	KindDTBL
	// KindUnknown: trace-ingest mode, where launch sites are not part
	// of the serialized event schema.
	KindUnknown

	numKinds // sentinel
)

func (k LaunchKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindDevice:
		return "device"
	case KindDTBL:
		return "dtbl"
	case KindUnknown:
		return "unknown"
	default:
		return "kind(?)"
	}
}

// siteKey groups spans by launch site and policy decision kind.
type siteKey struct {
	site string
	kind LaunchKind
}

// openSpan tracks one in-flight kernel's stage boundaries. Spans are
// held by value, so tracking a kernel allocates nothing of its own.
type openSpan struct {
	key        siteKey
	submitted  uint64
	arrived    uint64
	firstCTA   uint64
	hasArrived bool
	hasFirst   bool
}

// siteAgg accumulates completed spans of one (site, kind) group.
type siteAgg struct {
	count   uint64
	partial uint64 // spans closed without a retire event (aborted runs)
	transit hist
	queue   hist
	exec    hist
	total   hist
}

// KernelSite attributes kernel id to a launch site before its
// KernelSubmitted event is emitted. The simulator calls this with the
// parent kernel definition name (or "(host)") — a side channel, so the
// trace event schema itself stays unchanged. Safe on a nil receiver.
func (p *Profile) KernelSite(id int, site string, kind LaunchKind) {
	if p == nil {
		return
	}
	p.sites[id] = siteKey{site: site, kind: kind}
}

// Record implements trace.Sink: span stage boundaries are read off the
// ordinary event stream. Unknown or out-of-order transitions never
// panic — chaos-aborted runs produce partial spans, and a retire
// without a placement is counted as an anomaly — so the profiler can
// also replay externally captured JSONL streams. Safe on a nil
// receiver. The engine reaches it only through the trace.Sink
// interface, which the call graph does not follow.
//
//spawnvet:hotpath
func (p *Profile) Record(e trace.Event) {
	if p == nil {
		return
	}
	switch e.Kind {
	case trace.KernelSubmitted:
		if _, dup := p.open[e.Kernel]; dup {
			p.anomalies++
			return
		}
		key, ok := p.sites[e.Kernel]
		if !ok {
			key = siteKey{site: "(trace)", kind: KindUnknown}
		}
		delete(p.sites, e.Kernel)
		p.open[e.Kernel] = openSpan{key: key, submitted: e.Cycle}
	case trace.KernelArrived:
		s, ok := p.open[e.Kernel]
		if !ok || s.hasArrived {
			p.anomalies++
			return
		}
		s.arrived = e.Cycle
		s.hasArrived = true
		p.open[e.Kernel] = s
	case trace.CTAPlaced:
		s, ok := p.open[e.Kernel]
		if !ok || s.hasFirst {
			return // later CTAs of the same kernel are not stage edges
		}
		s.firstCTA = e.Cycle
		s.hasFirst = true
		p.open[e.Kernel] = s
	case trace.KernelCompleted:
		s, ok := p.open[e.Kernel]
		if !ok {
			p.anomalies++
			return
		}
		delete(p.open, e.Kernel)
		p.foldSpan(&s, e.Cycle, false)
	case trace.KernelYielded, trace.CTASuspended, trace.CTACompleted,
		trace.LaunchAccepted, trace.LaunchDeclined, trace.LaunchDeferred,
		trace.FaultInjected:
		// Not a span stage boundary.
	default:
		// Future event kinds are not span stage boundaries either.
	}
}

// Close implements trace.Sink. The simulator never calls it (sink
// owners do); span finalization happens in Report, so Close has
// nothing to flush.
func (p *Profile) Close() error { return nil }

// foldSpan accumulates one span into its (site, kind) aggregate. end is
// the retire cycle, or the last observed cycle for partial spans.
func (p *Profile) foldSpan(s *openSpan, end uint64, partial bool) {
	a := p.agg[s.key]
	if a == nil {
		a = &siteAgg{} //spawnvet:allow hotpath miss path of the per-site aggregate table (agg): once per (site, kind)
		p.agg[s.key] = a
	}
	if partial {
		a.partial++
	} else {
		a.count++
	}
	if s.hasArrived {
		a.transit.observe(s.arrived - s.submitted)
		if s.hasFirst {
			a.queue.observe(s.firstCTA - s.arrived)
		}
	} else {
		p.anomalies++
	}
	if s.hasFirst && !partial {
		a.exec.observe(end - s.firstCTA)
	}
	if !partial {
		a.total.observe(end - s.submitted)
	}
}

// closeOpenSpans folds still-open spans as partial (aborted runs render
// their launch and queueing stages; execution and total need a retire).
// Map order does not matter: partial aggregation is commutative sums.
func (p *Profile) closeOpenSpans() {
	for id, s := range p.open {
		delete(p.open, id)
		p.foldSpan(&s, p.endCycle, true)
	}
}
