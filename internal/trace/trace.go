// Package trace records structured simulator events — kernel and CTA
// lifecycle transitions, launch decisions — for debugging and for
// post-hoc analysis of a run. Tracing is opt-in and fans out through the
// Sink interface (sim.Options.Sinks): the bounded Ring keeps the most
// recent events in memory, while streaming sinks (JSONL, the Perfetto
// exporter) observe the full event stream as it is produced.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Sink receives every recorded event in cycle order. Implementations
// need not be safe for concurrent use (the simulator is
// single-threaded). Close flushes buffered output and finalizes the
// stream; the simulator does not call it — the owner of the sink does.
type Sink interface {
	Record(Event)
	Close() error
}

// Kind enumerates traced event types.
type Kind uint8

const (
	// KernelSubmitted: a kernel entered launch flight (host or device).
	KernelSubmitted Kind = iota
	// KernelArrived: a kernel reached the GMU pending pool.
	KernelArrived
	// KernelCompleted: all CTAs of a kernel finished.
	KernelCompleted
	// KernelYielded: a fully suspended kernel released its HWQ slot.
	KernelYielded
	// CTAPlaced: a CTA started executing on an SMX.
	CTAPlaced
	// CTASuspended: a CTA relinquished resources at DeviceSynchronize.
	CTASuspended
	// CTACompleted: a CTA fully completed (children drained).
	CTACompleted
	// LaunchAccepted / LaunchDeclined / LaunchDeferred: policy outcomes.
	LaunchAccepted
	LaunchDeclined
	LaunchDeferred
	// FaultInjected: the chaos injector perturbed the machine. CTA holds
	// the affected unit (SMX id, -1 = n/a) and Extra the fault kind
	// (internal/faults.Kind).
	FaultInjected
)

// kindNames holds each Kind's wire name, indexed by Kind: the one table
// String and ParseKind read.
var kindNames = [...]string{
	KernelSubmitted: "kernel-submitted",
	KernelArrived:   "kernel-arrived",
	KernelCompleted: "kernel-completed",
	KernelYielded:   "kernel-yielded",
	CTAPlaced:       "cta-placed",
	CTASuspended:    "cta-suspended",
	CTACompleted:    "cta-completed",
	LaunchAccepted:  "launch-accepted",
	LaunchDeclined:  "launch-declined",
	LaunchDeferred:  "launch-deferred",
	FaultInjected:   "fault-injected",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// kindByName inverts kindNames, built once so JSONL ingestion does not
// scan the table per event.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// ParseKind inverts Kind.String, reporting false for strings that name
// no known kind (including the "kind(N)" fallback form).
func ParseKind(s string) (Kind, bool) {
	k, ok := kindByName[s]
	return k, ok
}

// Event is one traced occurrence.
type Event struct {
	Cycle uint64
	Kind  Kind
	// Kernel is the kernel id, or 0 for events not tied to a kernel
	// (launch decisions fire before the child kernel exists). Kernel ids
	// are 1-based — sim.GPU allocates them from a pre-incremented
	// sequence — so 0 never collides with a real kernel.
	Kernel int
	CTA    int // CTA index within the kernel (-1 = n/a)
	Extra  int // kind-specific payload (workload, SMX id, ...)
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10d %-18s", e.Cycle, e.Kind)
	if e.Kernel != 0 {
		fmt.Fprintf(&b, " kernel=%d", e.Kernel)
	}
	if e.CTA >= 0 {
		fmt.Fprintf(&b, " cta=%d", e.CTA)
	}
	if e.Extra != 0 {
		fmt.Fprintf(&b, " extra=%d", e.Extra)
	}
	return b.String()
}

// Ring is a bounded event recorder implementing Sink. The zero value is
// disabled; create with New. Unlike the streaming sinks it retains only
// the most recent events (use JSONL for the full stream). Not safe for
// concurrent use (the simulator is single-threaded).
type Ring struct {
	buf     []Event
	next    int
	wrapped bool
	total   uint64
}

// New creates a ring holding up to n events.
func New(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Record appends an event (overwriting the oldest when full).
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
	r.wrapped = true
}

// Close implements Sink; a ring holds no buffered output.
func (r *Ring) Close() error { return nil }

// Total reports how many events were recorded overall (including
// overwritten ones).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Events returns the retained events in chronological order.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.wrapped {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Counts tallies retained events per kind.
func (r *Ring) Counts() map[Kind]int {
	m := map[Kind]int{}
	for _, e := range r.Events() {
		m[e.Kind]++
	}
	return m
}

// Dump writes the retained events, one per line.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
