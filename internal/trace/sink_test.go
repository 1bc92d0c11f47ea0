package trace

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONLStream(t *testing.T) {
	var b strings.Builder
	s := NewJSONL(&b)
	s.Record(Event{Cycle: 10, Kind: KernelSubmitted, Kernel: 1, CTA: -1, Extra: 7})
	s.Record(Event{Cycle: 20, Kind: CTAPlaced, Kernel: 1, CTA: 0, Extra: 3})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), b.String())
	}
	var first struct {
		Cycle  uint64 `json:"cycle"`
		Kind   string `json:"kind"`
		Kernel int    `json:"kernel"`
		CTA    int    `json:"cta"`
		Extra  int    `json:"extra"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not JSON: %v (%s)", err, lines[0])
	}
	if first.Cycle != 10 || first.Kind != "kernel-submitted" || first.Kernel != 1 ||
		first.CTA != -1 || first.Extra != 7 {
		t.Errorf("line 1 = %+v", first)
	}
	if !strings.Contains(lines[1], `"kind":"cta-placed"`) {
		t.Errorf("line 2 = %s", lines[1])
	}
}

// lifecycle replays a minimal two-kernel run through a sink.
func lifecycle(s Sink) {
	s.Record(Event{Cycle: 0, Kind: KernelSubmitted, Kernel: 1, CTA: -1})
	s.Record(Event{Cycle: 5, Kind: KernelArrived, Kernel: 1, CTA: -1})
	s.Record(Event{Cycle: 6, Kind: CTAPlaced, Kernel: 1, CTA: 0, Extra: 2})
	s.Record(Event{Cycle: 8, Kind: LaunchAccepted, CTA: -1, Extra: 40})
	s.Record(Event{Cycle: 8, Kind: KernelSubmitted, Kernel: 2, CTA: -1, Extra: 40})
	s.Record(Event{Cycle: 30, Kind: KernelArrived, Kernel: 2, CTA: -1})
	s.Record(Event{Cycle: 31, Kind: CTAPlaced, Kernel: 2, CTA: 0, Extra: 0})
	s.Record(Event{Cycle: 40, Kind: CTASuspended, Kernel: 1, CTA: 0})
	s.Record(Event{Cycle: 41, Kind: KernelYielded, Kernel: 1, CTA: -1})
	s.Record(Event{Cycle: 60, Kind: CTACompleted, Kernel: 2, CTA: 0})
	s.Record(Event{Cycle: 60, Kind: KernelCompleted, Kernel: 2, CTA: -1})
	s.Record(Event{Cycle: 61, Kind: CTACompleted, Kernel: 1, CTA: 0})
	s.Record(Event{Cycle: 61, Kind: KernelCompleted, Kernel: 1, CTA: -1})
}

// perfettoDoc decodes an exporter run into the trace-event list.
func perfettoDoc(t *testing.T, run func(*Perfetto)) []map[string]any {
	t.Helper()
	var b strings.Builder
	p := NewPerfetto(&b, 3)
	run(p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v\n%s", err, b.String())
	}
	return doc.TraceEvents
}

func TestPerfettoExport(t *testing.T) {
	evs := perfettoDoc(t, func(p *Perfetto) { lifecycle(p) })

	count := func(ph, name string) int {
		n := 0
		for _, e := range evs {
			if e["ph"] == ph && (name == "" || e["name"] == name) {
				n++
			}
		}
		return n
	}
	// Process metadata: GMU + 3 SMX tracks.
	if got := count("M", "process_name"); got != 4 {
		t.Errorf("process_name events = %d, want 4", got)
	}
	// Both kernels open and close; both CTAs open and close.
	if b, e := count("b", ""), count("e", ""); b != 4 || e != 4 {
		t.Errorf("async begin/end = %d/%d, want 4/4", b, e)
	}
	if got := count("n", "yielded"); got != 1 {
		t.Errorf("yielded instants = %d, want 1", got)
	}
	if got := count("i", "launch-accepted"); got != 1 {
		t.Errorf("launch-accepted instants = %d, want 1", got)
	}
	// The CTA of kernel 1 was placed on SMX 2 -> pid 3.
	found := false
	for _, e := range evs {
		if e["ph"] == "b" && e["name"] == "K1/CTA0" {
			found = true
			if pid, ok := e["pid"].(float64); !ok || pid != 3 {
				t.Errorf("K1/CTA0 pid = %v, want 3 (SMX 2)", e["pid"])
			}
			if ts, ok := e["ts"].(float64); !ok || ts != 6 {
				t.Errorf("K1/CTA0 ts = %v, want 6", e["ts"])
			}
		}
	}
	if !found {
		t.Error("no CTA begin event for K1/CTA0")
	}
	// A CTACompleted after CTASuspended must not emit a second end: the
	// K1 CTA span closed at the suspend (cycle 40).
	for _, e := range evs {
		if e["ph"] == "e" && e["name"] == "K1/CTA0" {
			if ts := e["ts"].(float64); ts != 40 {
				t.Errorf("K1/CTA0 closed at ts %v, want 40 (suspend)", ts)
			}
		}
	}
}

func TestPerfettoClosesDanglingSpans(t *testing.T) {
	evs := perfettoDoc(t, func(p *Perfetto) {
		p.Record(Event{Cycle: 0, Kind: KernelSubmitted, Kernel: 1, CTA: -1})
		p.Record(Event{Cycle: 4, Kind: CTAPlaced, Kernel: 1, CTA: 0, Extra: 1})
		p.Record(Event{Cycle: 9, Kind: KernelArrived, Kernel: 1, CTA: -1})
		// No completion events: Close must synthesize ends at cycle 9.
	})
	ends := 0
	for _, e := range evs {
		if e["ph"] == "e" {
			ends++
			if ts := e["ts"].(float64); ts != 9 {
				t.Errorf("dangling span closed at %v, want 9", ts)
			}
		}
	}
	if ends != 2 {
		t.Errorf("synthesized ends = %d, want 2 (kernel + CTA)", ends)
	}
}

func TestJSONLThroughBufio(t *testing.T) {
	// JSONL must flush its own buffer on Close even when wrapped.
	var b strings.Builder
	bw := bufio.NewWriter(&b)
	s := NewJSONL(bw)
	lifecycle(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "\n"); n != 13 {
		t.Errorf("streamed %d lines, want 13", n)
	}
}
