package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Perfetto is a Sink exporting the run as Chrome trace-event JSON, the
// format ui.perfetto.dev and chrome://tracing open directly. One
// simulated cycle maps to one microsecond of trace time.
//
// Track layout:
//   - process 0 ("GMU / kernels"): kernel lifecycles as async duration
//     events (submitted -> completed, with "arrived" and "yielded"
//     instants), plus a "launch decisions" thread carrying
//     accept/decline/defer instants;
//   - one process per SMX ("SMX <i>"): CTA residencies as async duration
//     events (placed -> suspended-or-completed), one row per concurrently
//     resident CTA.
//
// Async events are used because kernels and CTAs overlap arbitrarily —
// they do not nest the way synchronous duration events require.
type Perfetto struct {
	w     *bufio.Writer
	err   error
	first bool // no event emitted yet (comma management)

	last    uint64         // highest cycle seen
	openCTA map[[2]int]int // (kernel, cta) -> event id of the open span
	openK   map[int]bool   // kernel id -> async span open
	nextID  int

	// Counter tracks render as threads of the kernels process. tids are
	// allocated in first-use order from counterTIDBase and every counter
	// sample is emitted immediately at Record time, so two exports of
	// the same run produce identical bytes — and Close has nothing
	// counter-related left to sort (no map iteration at finalization).
	counterTID map[string]int
}

// kernelsPID is the trace process id of the kernel/GMU track group; SMX
// i renders as process i+1.
const kernelsPID = 0

// NewPerfetto creates the exporter over w, declaring numSMX SMX tracks
// up front. The caller retains ownership of w; Close finalizes the JSON
// document but does not close w.
func NewPerfetto(w io.Writer, numSMX int) *Perfetto {
	p := &Perfetto{
		w:          bufio.NewWriterSize(w, 1<<16),
		first:      true,
		openCTA:    map[[2]int]int{},
		openK:      map[int]bool{},
		nextID:     1,
		counterTID: map[string]int{},
	}
	p.raw(`{"displayTimeUnit":"ms","traceEvents":[`)
	p.meta("process_name", kernelsPID, 0, `"name":"GMU / kernels"`)
	p.meta("process_sort_index", kernelsPID, 0, `"sort_index":0`)
	p.meta("thread_name", kernelsPID, 1, `"name":"launch decisions"`)
	p.meta("thread_name", kernelsPID, 2, `"name":"faults"`)
	for i := 0; i < numSMX; i++ {
		p.meta("process_name", i+1, 0, fmt.Sprintf(`"name":"SMX %d"`, i))
		p.meta("process_sort_index", i+1, 0, fmt.Sprintf(`"sort_index":%d`, i+1))
	}
	return p
}

// raw writes a fragment, latching the first error.
func (p *Perfetto) raw(s string) {
	if p.err != nil {
		return
	}
	_, p.err = p.w.WriteString(s)
}

// event writes one trace event object from a pre-rendered body.
func (p *Perfetto) event(body string) {
	if p.err != nil {
		return
	}
	if !p.first {
		p.raw(",\n")
	}
	p.first = false
	p.raw(body)
}

// meta emits a metadata ("M") event.
func (p *Perfetto) meta(name string, pid, tid int, args string) {
	p.event(fmt.Sprintf(`{"ph":"M","name":%q,"pid":%d,"tid":%d,"args":{%s}}`, name, pid, tid, args))
}

// async emits an async begin/end/instant ("b"/"e"/"n") event.
func (p *Perfetto) async(ph string, cat string, id int, name string, pid int, ts uint64, args string) {
	if args != "" {
		args = fmt.Sprintf(`,"args":{%s}`, args)
	}
	p.event(fmt.Sprintf(`{"ph":%q,"cat":%q,"id":%d,"name":%q,"pid":%d,"tid":0,"ts":%d%s}`,
		ph, cat, id, name, pid, ts, args))
}

// counterTIDBase is the first thread id used for counter tracks inside
// the kernels process; tids 1 and 2 are the launch-decision and fault
// instant threads.
const counterTIDBase = 100

// Counter emits one sample of a named counter track (queue depth, SMX
// occupancy, ...) at cycle ts. The track's thread id is allocated on
// first use, in call order; callers must therefore introduce tracks in
// a deterministic order, which every profiler-driven exporter does by
// walking sorted report timelines. Values render with strconv's
// shortest 'g' form, the same float contract as the metrics exporters.
func (p *Perfetto) Counter(track string, ts uint64, value float64) {
	tid, ok := p.counterTID[track]
	if !ok {
		tid = counterTIDBase + len(p.counterTID)
		p.counterTID[track] = tid
		p.meta("thread_name", kernelsPID, tid, fmt.Sprintf(`"name":%q`, track))
		p.meta("thread_sort_index", kernelsPID, tid, fmt.Sprintf(`"sort_index":%d`, tid))
	}
	if ts > p.last {
		p.last = ts
	}
	p.event(fmt.Sprintf(`{"ph":"C","name":%q,"pid":%d,"tid":%d,"ts":%d,"args":{"value":%s}}`,
		track, kernelsPID, tid, ts, strconv.FormatFloat(value, 'g', -1, 64)))
}

// Record implements Sink.
func (p *Perfetto) Record(e Event) {
	if e.Cycle > p.last {
		p.last = e.Cycle
	}
	switch e.Kind {
	case KernelSubmitted:
		if p.openK[e.Kernel] {
			return // defensive: one span per kernel id
		}
		p.openK[e.Kernel] = true
		p.async("b", "kernel", e.Kernel, fmt.Sprintf("kernel %d", e.Kernel),
			kernelsPID, e.Cycle, fmt.Sprintf(`"workload":%d`, e.Extra))
	case KernelArrived, KernelYielded:
		if !p.openK[e.Kernel] {
			return
		}
		name := "arrived"
		if e.Kind == KernelYielded {
			name = "yielded"
		}
		p.async("n", "kernel", e.Kernel, name, kernelsPID, e.Cycle, "")
	case KernelCompleted:
		if !p.openK[e.Kernel] {
			return
		}
		delete(p.openK, e.Kernel)
		p.async("e", "kernel", e.Kernel, fmt.Sprintf("kernel %d", e.Kernel),
			kernelsPID, e.Cycle, "")
	case CTAPlaced:
		key := [2]int{e.Kernel, e.CTA}
		if _, open := p.openCTA[key]; open {
			return
		}
		id := p.nextID
		p.nextID++
		// The close event must target the same pid, so remember the span
		// id and the owning SMX together.
		p.openCTA[key] = id<<16 | (e.Extra & 0xffff)
		p.async("b", "cta", id, fmt.Sprintf("K%d/CTA%d", e.Kernel, e.CTA),
			e.Extra+1, e.Cycle, "")
	case CTASuspended, CTACompleted:
		key := [2]int{e.Kernel, e.CTA}
		enc, open := p.openCTA[key]
		if !open {
			return // CTACompleted after CTASuspended: span already closed
		}
		delete(p.openCTA, key)
		p.async("e", "cta", enc>>16, fmt.Sprintf("K%d/CTA%d", e.Kernel, e.CTA),
			(enc&0xffff)+1, e.Cycle, "")
	case LaunchAccepted, LaunchDeclined, LaunchDeferred:
		p.event(fmt.Sprintf(`{"ph":"i","s":"t","name":%q,"pid":%d,"tid":1,"ts":%d,"args":{"workload":%d}}`,
			e.Kind.String(), kernelsPID, e.Cycle, e.Extra))
	case FaultInjected:
		p.event(fmt.Sprintf(`{"ph":"i","s":"t","name":%q,"pid":%d,"tid":2,"ts":%d,"args":{"kind":%d,"unit":%d}}`,
			e.Kind.String(), kernelsPID, e.Cycle, e.Extra, e.CTA))
	}
}

// Close terminates still-open spans at the last seen cycle (so aborted
// runs render), finalizes the JSON document, and flushes.
func (p *Perfetto) Close() error {
	// Emit forced closes in sorted order: map iteration order would make
	// two exports of the same aborted run differ byte-for-byte.
	ctaKeys := make([][2]int, 0, len(p.openCTA))
	for key := range p.openCTA {
		ctaKeys = append(ctaKeys, key)
	}
	sort.Slice(ctaKeys, func(i, j int) bool {
		if ctaKeys[i][0] != ctaKeys[j][0] {
			return ctaKeys[i][0] < ctaKeys[j][0]
		}
		return ctaKeys[i][1] < ctaKeys[j][1]
	})
	for _, key := range ctaKeys {
		enc := p.openCTA[key]
		p.async("e", "cta", enc>>16, fmt.Sprintf("K%d/CTA%d", key[0], key[1]),
			(enc&0xffff)+1, p.last, "")
	}
	p.openCTA = map[[2]int]int{}
	kernels := make([]int, 0, len(p.openK))
	for k := range p.openK {
		kernels = append(kernels, k)
	}
	sort.Ints(kernels)
	for _, k := range kernels {
		p.async("e", "kernel", k, fmt.Sprintf("kernel %d", k), kernelsPID, p.last, "")
	}
	p.openK = map[int]bool{}
	p.raw("\n]}\n")
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}
