package profile

import (
	"bytes"
	"math/rand"
	"testing"

	"spawnsim/internal/trace"
)

func TestHistObserveReportQuantile(t *testing.T) {
	var h hist
	for _, v := range []uint64{0, 1, 2, 3, 100, 100, 5000} {
		h.observe(v)
	}
	r := h.report()
	if r.Count != 7 || r.Sum != 5206 || r.Max != 5000 {
		t.Fatalf("report summary = %d/%d/%d, want 7/5206/5000", r.Count, r.Sum, r.Max)
	}
	var total uint64
	for i, b := range r.Buckets {
		total += b.Count
		if i > 0 && r.Buckets[i-1].Le >= b.Le {
			t.Errorf("bucket Les not ascending: %d then %d", r.Buckets[i-1].Le, b.Le)
		}
	}
	if total != r.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, r.Count)
	}
	if q := r.Quantile(0.5); q != 127 {
		// 4 of 7 values are <= 3; the 0.5-target (3rd value) lands in the
		// le=3 bucket... verify against a direct cumulative walk instead
		// of hard-coding: p50 must be an upper bound on the median (3).
		if q < 3 {
			t.Errorf("p50 = %d, below the true median 3", q)
		}
	}
	if q := r.Quantile(1.0); q != r.Max {
		t.Errorf("p100 = %d, want max %d", q, r.Max)
	}
	if q := r.Quantile(0.99); q > r.Max {
		t.Errorf("quantile %d exceeds observed max %d", q, r.Max)
	}
}

// TestEndTickClassification checks the booking contract: a noted
// state holds until the component is noted again, a busy state lasts
// one tick, a state noted after busy in the same tick begins at the next
// tick, and a component never noted is idle.
func TestEndTickClassification(t *testing.T) {
	p := New(2, Options{SampleEvery: 1000})
	// Tick 0: GMU busy, HWQ stalled on its queue, SMX0 stalled on
	// latency, SMX1 not noted; mem issues.
	p.Note(CompGMU, StateBusy)
	p.Note(CompHWQ, StallQueue)
	p.Note(CompSMX0, StallLatency)
	p.EndTick(TickStats{Now: 0, Transactions: 1})
	// Tick 1: only SMX0 is noted (idle); no new transactions. GMU is
	// idle after its busy tick, HWQ still stalls.
	p.Note(CompSMX0, StateIdle)
	p.EndTick(TickStats{Now: 1, Transactions: 1})
	// Tick 2: SMX1 issues and then waits on a sync from tick 3 on.
	p.Note(CompSMX0+1, StateBusy)
	p.Note(CompSMX0+1, StallSync)
	p.EndTick(TickStats{Now: 2, Transactions: 1})
	p.EndTick(TickStats{Now: 3, Transactions: 1})

	r := p.Report()
	if r.Ticked != 4 || r.Cycles != 4 {
		t.Fatalf("ticked/cycles = %d/%d, want 4/4", r.Ticked, r.Cycles)
	}
	byName := map[string]ComponentReport{}
	for _, c := range r.Components {
		byName[c.Name] = c
	}
	if g := byName["gmu"]; g.Busy != 1 || g.Idle != 3 {
		t.Errorf("gmu busy/idle = %d/%d, want 1/3 (busy lasts one tick)", g.Busy, g.Idle)
	}
	if h := byName["hwq"]; h.StallQueue != 4 {
		t.Errorf("hwq stall-queue = %d, want 4 (held until noted again)", h.StallQueue)
	}
	if m := byName["mem"]; m.Busy != 1 || m.Idle != 3 {
		t.Errorf("mem busy/idle = %d/%d, want 1/3 (delta classification)", m.Busy, m.Idle)
	}
	if s := byName["smx0"]; s.StallLatency != 1 || s.Idle != 3 {
		t.Errorf("smx0 stall-latency/idle = %d/%d, want 1/3", s.StallLatency, s.Idle)
	}
	if s := byName["smx1"]; s.Idle != 2 || s.Busy != 1 || s.StallSync != 1 {
		t.Errorf("smx1 idle/busy/stall-sync = %d/%d/%d, want 2/1/1", s.Idle, s.Busy, s.StallSync)
	}
}

func TestSkipToExtendsIdleRuns(t *testing.T) {
	p := New(0, Options{})
	// GMU idle at tick 0, engine skips cycles 1..9, busy at tick 10:
	// the closed idle run must span 10 cycles (1 ticked + 9 skipped).
	p.EndTick(TickStats{Now: 0})
	p.SkipTo(0, 10)
	p.Note(CompGMU, StateBusy)
	p.EndTick(TickStats{Now: 10})

	r := p.Report()
	if r.Ticked != 2 || r.Skipped != 9 {
		t.Fatalf("ticked/skipped = %d/%d, want 2/9", r.Ticked, r.Skipped)
	}
	gmu := r.Components[CompGMU]
	if gmu.IdleRuns.Count != 1 || gmu.IdleRuns.Max != 10 {
		t.Errorf("gmu idle runs = %d runs max %d, want 1 run of 10", gmu.IdleRuns.Count, gmu.IdleRuns.Max)
	}
	// SkipTo with next <= now+1 is a no-op.
	q := New(0, Options{})
	q.SkipTo(5, 6)
	if rep := q.Report(); rep.Skipped != 0 {
		t.Errorf("adjacent SkipTo recorded %d skipped cycles, want 0", rep.Skipped)
	}
}

func TestNilProfileNoOps(t *testing.T) {
	var p *Profile
	p.Note(CompGMU, StateBusy)
	p.EndTick(TickStats{Now: 0})
	p.SkipTo(0, 100)
	p.Finish(100)
	p.KernelSite(1, "x", KindDevice)
	p.Record(trace.Event{Kind: trace.KernelSubmitted, Kernel: 1})
	if p.SampleDue(0) {
		t.Error("nil profile reported a sample due")
	}
	if p.Report() != nil {
		t.Error("nil profile produced a report")
	}
}

// feed replays a synthetic event stream.
func feed(p *Profile, events []trace.Event) {
	for _, e := range events {
		p.Record(e)
	}
}

func TestSpanAssembly(t *testing.T) {
	p := New(0, Options{})
	p.KernelSite(1, "parent", KindDevice)
	feed(p, []trace.Event{
		{Cycle: 100, Kind: trace.KernelSubmitted, Kernel: 1, CTA: -1},
		{Cycle: 130, Kind: trace.KernelArrived, Kernel: 1, CTA: -1},
		{Cycle: 150, Kind: trace.CTAPlaced, Kernel: 1, CTA: 0},
		{Cycle: 155, Kind: trace.CTAPlaced, Kernel: 1, CTA: 1}, // later CTA: not a stage edge
		{Cycle: 400, Kind: trace.KernelCompleted, Kernel: 1, CTA: -1},
	})
	r := p.Report()
	if len(r.Sites) != 1 {
		t.Fatalf("got %d sites, want 1", len(r.Sites))
	}
	s := r.Sites[0]
	if s.Site != "parent" || s.Kind != "device" {
		t.Fatalf("site key = %s/%s, want parent/device", s.Site, s.Kind)
	}
	if s.Count != 1 || s.Partial != 0 {
		t.Fatalf("count/partial = %d/%d, want 1/0", s.Count, s.Partial)
	}
	for _, tc := range []struct {
		name string
		h    HistReport
		sum  uint64
	}{
		{"transit", s.Transit, 30}, {"queue", s.Queue, 20},
		{"exec", s.Exec, 250}, {"total", s.Total, 300},
	} {
		if tc.h.Count != 1 || tc.h.Sum != tc.sum {
			t.Errorf("%s = %d obs sum %d, want 1 obs sum %d", tc.name, tc.h.Count, tc.h.Sum, tc.sum)
		}
	}
	if r.Anomalies != 0 {
		t.Errorf("anomalies = %d, want 0", r.Anomalies)
	}
}

func TestSpanOutOfOrderRetire(t *testing.T) {
	// Kernel 2 submits after kernel 1 but retires first; both spans must
	// close cleanly with no anomalies.
	p := New(0, Options{})
	p.KernelSite(1, "a", KindDevice)
	p.KernelSite(2, "a", KindDevice)
	feed(p, []trace.Event{
		{Cycle: 10, Kind: trace.KernelSubmitted, Kernel: 1, CTA: -1},
		{Cycle: 20, Kind: trace.KernelSubmitted, Kernel: 2, CTA: -1},
		{Cycle: 30, Kind: trace.KernelArrived, Kernel: 2, CTA: -1},
		{Cycle: 35, Kind: trace.KernelArrived, Kernel: 1, CTA: -1},
		{Cycle: 40, Kind: trace.CTAPlaced, Kernel: 2, CTA: 0},
		{Cycle: 45, Kind: trace.CTAPlaced, Kernel: 1, CTA: 0},
		{Cycle: 50, Kind: trace.KernelCompleted, Kernel: 2, CTA: -1},
		{Cycle: 90, Kind: trace.KernelCompleted, Kernel: 1, CTA: -1},
	})
	r := p.Report()
	if len(r.Sites) != 1 || r.Sites[0].Count != 2 {
		t.Fatalf("sites/count = %d/%d, want 1 site with 2 spans", len(r.Sites), r.Sites[0].Count)
	}
	if r.Anomalies != 0 {
		t.Errorf("anomalies = %d, want 0", r.Anomalies)
	}
	if got := r.Sites[0].Total.Sum; got != (90-10)+(50-20) {
		t.Errorf("total stage sum = %d, want 110", got)
	}
}

func TestSpanAbortedRunYieldsPartials(t *testing.T) {
	p := New(0, Options{})
	p.KernelSite(1, "a", KindDevice)
	p.KernelSite(2, "a", KindDevice)
	feed(p, []trace.Event{
		{Cycle: 10, Kind: trace.KernelSubmitted, Kernel: 1, CTA: -1},
		{Cycle: 15, Kind: trace.KernelArrived, Kernel: 1, CTA: -1},
		{Cycle: 20, Kind: trace.CTAPlaced, Kernel: 1, CTA: 0},
		{Cycle: 25, Kind: trace.KernelSubmitted, Kernel: 2, CTA: -1},
		// Run aborts here: neither kernel retires, kernel 2 never arrived.
	})
	p.Finish(100)
	r := p.Report()
	if len(r.Sites) != 1 {
		t.Fatalf("got %d sites, want 1", len(r.Sites))
	}
	s := r.Sites[0]
	if s.Count != 0 || s.Partial != 2 || r.PartialSpans != 2 {
		t.Fatalf("count/partial/report-partials = %d/%d/%d, want 0/2/2", s.Count, s.Partial, r.PartialSpans)
	}
	// Kernel 1's transit and queue stages are still measured; exec and
	// total need a retire and must stay empty.
	if s.Transit.Count != 1 || s.Queue.Count != 1 {
		t.Errorf("transit/queue obs = %d/%d, want 1/1", s.Transit.Count, s.Queue.Count)
	}
	if s.Exec.Count != 0 || s.Total.Count != 0 {
		t.Errorf("exec/total obs = %d/%d, want 0/0 for partial spans", s.Exec.Count, s.Total.Count)
	}
	// Kernel 2 never arrived: one anomaly.
	if r.Anomalies != 1 {
		t.Errorf("anomalies = %d, want 1", r.Anomalies)
	}
}

func TestSpanAnomalies(t *testing.T) {
	p := New(0, Options{})
	feed(p, []trace.Event{
		{Cycle: 1, Kind: trace.KernelSubmitted, Kernel: 1, CTA: -1},
		{Cycle: 2, Kind: trace.KernelSubmitted, Kernel: 1, CTA: -1}, // duplicate submit
		{Cycle: 3, Kind: trace.KernelArrived, Kernel: 9, CTA: -1},   // arrival without a span
		{Cycle: 4, Kind: trace.KernelCompleted, Kernel: 9, CTA: -1}, // retire without a span
	})
	r := p.Report()
	if r.Anomalies != 3+1 { // +1: kernel 1 folds partial without arriving
		t.Errorf("anomalies = %d, want 4", r.Anomalies)
	}
	// Untracked sites fall back to the ingest key.
	if len(r.Sites) != 1 || r.Sites[0].Site != "(trace)" || r.Sites[0].Kind != "unknown" {
		t.Errorf("fallback site = %+v, want (trace)/unknown", r.Sites)
	}
}

// synthReport builds a small report via the public accumulators.
func synthReport(busy uint64) *Report {
	p := New(1, Options{SampleEvery: 1})
	p.KernelSite(1, "site-a", KindDevice)
	p.Record(trace.Event{Cycle: 0, Kind: trace.KernelSubmitted, Kernel: 1, CTA: -1})
	p.Record(trace.Event{Cycle: 2, Kind: trace.KernelArrived, Kernel: 1, CTA: -1})
	p.Record(trace.Event{Cycle: 4, Kind: trace.CTAPlaced, Kernel: 1, CTA: 0})
	for i := uint64(0); i < busy; i++ {
		p.Note(CompGMU, StateBusy)
		p.Note(CompSMX0, StallLatency)
		p.EndTick(TickStats{Now: i, Transactions: i})
	}
	p.Record(trace.Event{Cycle: busy, Kind: trace.KernelCompleted, Kernel: 1, CTA: -1})
	p.Finish(busy)
	return p.Report()
}

func TestMergeReports(t *testing.T) {
	a, b := synthReport(4), synthReport(8)
	m := MergeReports(a, b)
	if m.Runs != 2 || m.Ticked != 12 {
		t.Fatalf("merged runs/ticked = %d/%d, want 2/12", m.Runs, m.Ticked)
	}
	if m.Timeline != nil {
		t.Error("merged report kept a timeline; it describes exactly one run")
	}
	if len(m.Components) != len(a.Components) {
		t.Fatalf("merged components = %d, want %d", len(m.Components), len(a.Components))
	}
	if g := m.Components[CompGMU]; g.Busy != 12 {
		t.Errorf("merged gmu busy = %d, want 12", g.Busy)
	}
	if len(m.Sites) != 1 || m.Sites[0].Count != 2 {
		t.Fatalf("merged sites = %+v, want one site with 2 spans", m.Sites)
	}
	// Merging must not mutate its inputs.
	if a.Runs != 1 || b.Runs != 1 {
		t.Error("MergeReports mutated an input report")
	}
	// Nil tolerance.
	if MergeReports(nil, nil) != nil {
		t.Error("MergeReports(nil, nil) != nil")
	}
	if one := MergeReports(nil, a); one == nil || one.Runs != 1 || one == a {
		t.Error("MergeReports(nil, a) must clone a")
	}
}

func TestMergeOrderIndependentBytes(t *testing.T) {
	a, b := synthReport(4), synthReport(8)
	ab, ba := MergeReports(a, b), MergeReports(b, a)
	var bufAB, bufBA bytes.Buffer
	if err := ab.WriteJSON(&bufAB); err != nil {
		t.Fatal(err)
	}
	if err := ba.WriteJSON(&bufBA); err != nil {
		t.Fatal(err)
	}
	// Components carry identical name sets here (the Pool invariant:
	// every run profiles the same machine shape), so merge order cannot
	// show through anywhere.
	if !bytes.Equal(bufAB.Bytes(), bufBA.Bytes()) {
		t.Errorf("merge order leaked into serialized bytes:\nab: %s\nba: %s", bufAB.Bytes(), bufBA.Bytes())
	}
}

func TestReportSerializationDeterministic(t *testing.T) {
	for _, format := range []string{"json", "text", "csv"} {
		var b1, b2 bytes.Buffer
		r1, r2 := synthReport(16), synthReport(16)
		var err1, err2 error
		switch format {
		case "json":
			err1, err2 = r1.WriteJSON(&b1), r2.WriteJSON(&b2)
		case "text":
			err1, err2 = r1.WriteText(&b1), r2.WriteText(&b2)
		default:
			err1, err2 = r1.WriteCSV(&b1), r2.WriteCSV(&b2)
		}
		if err1 != nil || err2 != nil {
			t.Fatalf("%s writers: %v / %v", format, err1, err2)
		}
		if b1.Len() == 0 {
			t.Fatalf("%s writer produced no output", format)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("%s output differs between identical profiles", format)
		}
	}
}

func TestTimelineSampling(t *testing.T) {
	p := New(0, Options{SampleEvery: 10})
	for i := uint64(0); i < 35; i++ {
		p.EndTick(TickStats{Now: i, QueuedKernels: int(i)})
	}
	r := p.Report()
	if len(r.Timeline) != 4 { // cycles 0, 10, 20, 30
		t.Fatalf("timeline has %d samples, want 4: %+v", len(r.Timeline), r.Timeline)
	}
	for i, s := range r.Timeline {
		if s.Cycle != uint64(i*10) {
			t.Errorf("sample %d at cycle %d, want %d", i, s.Cycle, i*10)
		}
	}
}

// refProfile is the activity accounting as it stood when the engine
// noted every component on every tick and EndTick folded each of them,
// idle unless noted: kept unchanged as the reference the change-based
// booking must reproduce.
type refProfile struct {
	comps []refComp
	state []State // per-tick scratch, reset to idle by EndTick

	ticked   uint64
	skipped  uint64
	endCycle uint64
	finished bool

	lastTx   uint64
	lastDRAM uint64

	sampleEvery uint64
	nextSample  uint64
	samples     []Sample
}

type refComp struct {
	name   string
	counts [numStates]uint64
	runLen uint64 // current non-busy run (ticked + skipped cycles)
	runs   hist
}

func newRefProfile(numSMX int, opts Options) *refProfile {
	p := &refProfile{
		comps:       make([]refComp, CompSMX0+numSMX),
		state:       make([]State, CompSMX0+numSMX),
		sampleEvery: opts.SampleEvery,
	}
	if p.sampleEvery == 0 {
		p.sampleEvery = DefaultSampleEvery
	}
	for i, c := range New(numSMX, opts).comps {
		p.comps[i].name = c.name
	}
	return p
}

func (p *refProfile) Note(comp int, s State) {
	p.state[comp] = s
}

func (p *refProfile) EndTick(st TickStats) {
	p.state[CompMem] = busyIf(st.Transactions > p.lastTx)
	p.state[CompDRAM] = busyIf(st.DRAMAccesses > p.lastDRAM)
	p.lastTx, p.lastDRAM = st.Transactions, st.DRAMAccesses
	p.ticked++
	if st.Now >= p.endCycle {
		p.endCycle = st.Now + 1
	}
	for i := range p.comps {
		c := &p.comps[i]
		s := p.state[i]
		c.counts[s]++
		if s == StateBusy {
			if c.runLen > 0 {
				c.runs.observe(c.runLen)
				c.runLen = 0
			}
		} else {
			c.runLen++
		}
		p.state[i] = StateIdle
	}
	if st.Now >= p.nextSample {
		p.nextSample = st.Now + p.sampleEvery
		p.samples = append(p.samples, Sample{
			Cycle:         st.Now,
			QueuedKernels: st.QueuedKernels,
			PendingCTAs:   st.PendingCTAs,
			ActiveWarps:   st.ActiveWarps,
			BusySMXs:      st.BusySMXs,
			BusyBanks:     st.BusyBanks,
			Utilization:   st.Utilization,
		})
	}
}

func (p *refProfile) SkipTo(now, next uint64) {
	if next <= now+1 {
		return
	}
	n := next - now - 1
	p.skipped += n
	for i := range p.comps {
		p.comps[i].runLen += n
	}
}

func (p *refProfile) Finish(end uint64) {
	if end > p.endCycle {
		p.endCycle = end
	}
}

func busyIf(b bool) State {
	if b {
		return StateBusy
	}
	return StateIdle
}

func (p *refProfile) finalize() {
	if p.finished {
		return
	}
	p.finished = true
	for i := range p.comps {
		c := &p.comps[i]
		if c.runLen > 0 {
			c.runs.observe(c.runLen)
			c.runLen = 0
		}
	}
}

// Report assembles the activity part of a Report as Profile.Report does.
func (p *refProfile) Report() *Report {
	p.finalize()
	r := &Report{Runs: 1, Cycles: p.endCycle, Ticked: p.ticked, Skipped: p.skipped}
	for i := range p.comps {
		c := &p.comps[i]
		r.Components = append(r.Components, ComponentReport{
			Name:              c.name,
			Busy:              c.counts[StateBusy],
			Idle:              c.counts[StateIdle],
			StallLatency:      c.counts[StallLatency],
			StallSync:         c.counts[StallSync],
			StallDispatch:     c.counts[StallDispatch],
			StallBackpressure: c.counts[StallBackpressure],
			StallQueue:        c.counts[StallQueue],
			IdleRuns:          c.runs.report(),
		})
	}
	r.Timeline = append([]Sample(nil), p.samples...)
	r.refresh()
	return r
}

// tickScript is a recorded run of the engine's profiler calls: per tick
// its cycle and every component's state, as the per-tick reference saw
// them (mem and DRAM come from the counter deltas in stats).
type tickScript struct {
	numSMX      int
	sampleEvery uint64
	cycles      []uint64  // ticked cycles, ascending
	states      [][]State // per tick, per component
	stats       []TickStats
	reportAt    map[int]bool // Finish and report at the entry of these ticks
	end         uint64       // Finish cycle after the last tick
}

// randomScript draws a script: some components are never noted, each
// noted component draws a new state on one tick in change, so states
// persist over runs of ticks (busy streaks included), and the gaps
// between ticks skip 0, 1 or many cycles, the first one too.
func randomScript(rng *rand.Rand, numSMX, ticks, change int) tickScript {
	sc := tickScript{numSMX: numSMX, reportAt: map[int]bool{}}
	sc.sampleEvery = []uint64{1, 5, 64, 0}[rng.Intn(4)]
	n := CompSMX0 + numSMX
	silent := make([]bool, n)
	for c := range silent {
		silent[c] = c == CompMem || c == CompDRAM || rng.Intn(4) == 0
	}
	cur := make([]State, n)
	var now, tx, dram uint64
	switch rng.Intn(3) {
	case 0: // first tick at cycle 0
	case 1:
		now = 1
	default:
		now = 2 + uint64(rng.Intn(5000))
	}
	for t := 0; t < ticks; t++ {
		if t > 0 {
			switch r := rng.Intn(10); {
			case r < 5:
				now++
			case r < 8:
				now += 2
			default:
				now += 2 + uint64(rng.Intn(3000))
			}
		}
		row := make([]State, n)
		for c := range row {
			if silent[c] {
				continue
			}
			if rng.Intn(change) == 0 {
				cur[c] = State(rng.Intn(int(numStates)))
			}
			row[c] = cur[c]
		}
		if rng.Intn(2) == 0 {
			tx += uint64(rng.Intn(3))
		}
		if rng.Intn(3) == 0 {
			dram++
		}
		sc.cycles = append(sc.cycles, now)
		sc.states = append(sc.states, row)
		sc.stats = append(sc.stats, TickStats{
			Now: now, QueuedKernels: rng.Intn(40), PendingCTAs: rng.Intn(300),
			ActiveWarps: int64(rng.Intn(900)), BusySMXs: rng.Intn(numSMX + 1),
			Transactions: tx, DRAMAccesses: dram, BusyBanks: rng.Intn(48),
			Utilization: float64(rng.Intn(100)) / 100,
		})
		if t > 0 && rng.Intn(ticks/3+1) == 0 {
			sc.reportAt[t] = true
		}
	}
	sc.end = now + 1 + uint64(rng.Intn(3))*uint64(rng.Intn(1000))
	return sc
}

// profiler is what both implementations offer the script drivers.
type profiler interface {
	Note(comp int, s State)
	EndTick(st TickStats)
	SkipTo(now, next uint64)
	Finish(end uint64)
	Report() *Report
}

// play drives p through sc with the Note calls of scriptNotes and
// returns the JSON of every report it took.
func play(t *testing.T, p profiler, sc tickScript, perTick bool, rng *rand.Rand) []string {
	t.Helper()
	var out []string
	report := func() {
		var b bytes.Buffer
		if err := p.Report().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b.String())
	}
	notes := scriptNotes(sc, perTick, rng)
	var last uint64
	for i, now := range sc.cycles {
		p.SkipTo(last, now)
		last = now
		if sc.reportAt[i] {
			// An abort at tick entry, as the stall watchdog's: result()
			// pins the end and the report is taken, here mid-run.
			p.Finish(now)
			report()
		}
		for _, n := range notes[i] {
			p.Note(n.comp, n.s)
		}
		p.EndTick(sc.stats[i])
	}
	p.SkipTo(last, sc.end)
	p.Finish(sc.end)
	report()
	return out
}

// TestProfileMatchesPerTickReference runs seeded random tick scripts
// through the change-based profiler and the per-tick reference and
// requires byte-identical reports, the mid-run ones included.
func TestProfileMatchesPerTickReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numSMX := []int{0, 1, 2, 13}[seed%4]
		sc := randomScript(rng, numSMX, 1+rng.Intn(400), 3)
		opts := Options{SampleEvery: sc.sampleEvery}
		want := play(t, newRefProfile(numSMX, opts), sc, true, rand.New(rand.NewSource(seed)))
		got := play(t, New(numSMX, opts), sc, false, rand.New(rand.NewSource(seed)))
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d reports, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (%d SMXs, %d ticks), report %d of %d differs:\ngot  %s\nwant %s",
					seed, numSMX, len(sc.cycles), i+1, len(want), got[i], want[i])
			}
		}
	}
}

// note is one Note call of a recorded tick.
type note struct {
	comp int
	s    State
}

// scriptNotes records the Note calls of every tick of sc (mem and DRAM
// come from the counter deltas instead). perTick notes every non-idle
// component on every tick, as the reference requires. Otherwise a
// component is noted when its state changes, and after a busy tick it
// is noted again at once with the state the next tick will find, as the
// engine notes an SMX after a visit. With an rng, perTick also notes
// some idle components, and the change-based calls sometimes skip the
// note after busy and add notes that change nothing.
func scriptNotes(sc tickScript, perTick bool, rng *rand.Rand) [][]note {
	coin := func(n int) bool { return rng != nil && rng.Intn(n) == 0 }
	held := make([]State, CompSMX0+sc.numSMX)
	out := make([][]note, len(sc.states))
	for i, row := range sc.states {
		for c, s := range row {
			switch {
			case c == CompMem || c == CompDRAM:
			case perTick:
				if s != StateIdle || coin(3) {
					out[i] = append(out[i], note{c, s})
				}
			case s == StateBusy:
				out[i] = append(out[i], note{c, s})
				held[c] = StateIdle
				if i+1 < len(sc.states) && sc.states[i+1][c] != StateBusy && !coin(2) {
					held[c] = sc.states[i+1][c]
					out[i] = append(out[i], note{c, held[c]})
				}
			case s != held[c] || coin(8):
				out[i] = append(out[i], note{c, s})
				held[c] = s
			}
		}
	}
	return out
}

// BenchmarkProfileTick replays a seeded tick script over the 17
// components of a K20m (GMU, HWQ, mem, DRAM, 13 SMXs), each drawing a
// new state on one tick in 16, with its Note calls recorded before the
// timer: one op is one tick. "booked" makes the calls of the change-based
// profiler, "per-tick" those of the per-tick reference.
func BenchmarkProfileTick(b *testing.B) {
	const numSMX = 13
	sc := randomScript(rand.New(rand.NewSource(1)), numSMX, 4096, 16)
	for _, mode := range []struct {
		name    string
		p       profiler
		perTick bool
	}{
		{"booked", New(numSMX, Options{}), false},
		{"per-tick", newRefProfile(numSMX, Options{}), true},
	} {
		notes := scriptNotes(sc, mode.perTick, nil)
		b.Run(mode.name, func(b *testing.B) {
			p := mode.p
			b.ReportAllocs()
			b.ResetTimer()
			var base, last uint64
			for i := 0; i < b.N; i++ {
				j := i % len(sc.cycles)
				if j == 0 && i > 0 {
					base = last + 1
				}
				now := base + sc.cycles[j]
				p.SkipTo(last, now)
				last = now
				for _, n := range notes[j] {
					p.Note(n.comp, n.s)
				}
				st := sc.stats[j]
				st.Now = now
				p.EndTick(st)
			}
		})
	}
}
