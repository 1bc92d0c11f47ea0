// Report is the serializable output of a Profile: dense activity
// counters, idle-run histograms, per-site span latencies and the
// sampled timeline, plus the derived ratios the event-wheel go/no-go
// decision needs. Reports merge commutatively (sums and bucket-wise
// histogram adds keyed by component name and site), so a Pool can fold
// per-run reports in submission order and get byte-identical output at
// any worker count.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// HistBucket is one non-empty power-of-two histogram bucket: Count
// values were <= Le (and greater than the previous bucket's Le).
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistReport is a serialized power-of-two histogram.
type HistReport struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Max     uint64       `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Mean returns the exact average of observed values (0 when empty).
func (h HistReport) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (the Le of the
// bucket where the cumulative count crosses q). q outside (0,1] is
// clamped.
func (h HistReport) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= target {
			// A bucket's Le can exceed the largest value actually
			// observed; Max is the tighter bound then.
			if b.Le > h.Max {
				return h.Max
			}
			return b.Le
		}
	}
	return h.Max
}

// report converts the internal histogram.
func (h *hist) report() HistReport {
	r := HistReport{Count: h.count, Sum: h.sum, Max: h.max}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		le := ^uint64(0)
		if i < 64 {
			le = uint64(1)<<uint(i) - 1
		}
		r.Buckets = append(r.Buckets, HistBucket{Le: le, Count: c})
	}
	return r
}

// mergeHist adds two serialized histograms (bucket lists are ascending
// by Le; the merge walk keeps them that way).
func mergeHist(a, b HistReport) HistReport {
	out := HistReport{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Max: a.Max}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	i, j := 0, 0
	for i < len(a.Buckets) || j < len(b.Buckets) {
		switch {
		case j >= len(b.Buckets) || (i < len(a.Buckets) && a.Buckets[i].Le < b.Buckets[j].Le):
			out.Buckets = append(out.Buckets, a.Buckets[i])
			i++
		case i >= len(a.Buckets) || b.Buckets[j].Le < a.Buckets[i].Le:
			out.Buckets = append(out.Buckets, b.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, HistBucket{Le: a.Buckets[i].Le, Count: a.Buckets[i].Count + b.Buckets[j].Count})
			i++
			j++
		}
	}
	return out
}

// ComponentReport is one component's activity breakdown. The counters
// cover ticked cycles; engine-skipped cycles are non-busy for every
// component by construction and are accounted once at the Report level.
type ComponentReport struct {
	Name              string     `json:"name"`
	Busy              uint64     `json:"busy"`
	Idle              uint64     `json:"idle"`
	StallLatency      uint64     `json:"stall_latency"`
	StallSync         uint64     `json:"stall_sync"`
	StallDispatch     uint64     `json:"stall_dispatch"`
	StallBackpressure uint64     `json:"stall_backpressure"`
	StallQueue        uint64     `json:"stall_queue"`
	IdleRuns          HistReport `json:"idle_runs"`
}

// Skippable returns the ticked cycles where this component was not
// busy (every stall state plus idle).
func (c ComponentReport) Skippable() uint64 {
	return c.Idle + c.StallLatency + c.StallSync + c.StallDispatch + c.StallBackpressure + c.StallQueue
}

// stallColumns names the stall states in ComponentReport field order.
var stallColumns = []string{"latency", "sync", "dispatch", "backpressure", "queue"}

// stalls returns the stall counters in stallColumns order.
func (c ComponentReport) stalls() [5]uint64 {
	return [5]uint64{c.StallLatency, c.StallSync, c.StallDispatch, c.StallBackpressure, c.StallQueue}
}

// TopStall names the dominant stall reason ("" when the component never
// stalled). Ties break toward the earlier column, deterministically.
func (c ComponentReport) TopStall() (string, uint64) {
	name, best := "", uint64(0)
	for i, v := range c.stalls() {
		if v > best {
			name, best = stallColumns[i], v
		}
	}
	return name, best
}

// SiteReport is the per-stage latency breakdown of one launch site and
// policy decision kind.
type SiteReport struct {
	Site    string     `json:"site"`
	Kind    string     `json:"kind"`
	Count   uint64     `json:"count"`
	Partial uint64     `json:"partial"`
	Transit HistReport `json:"transit"`
	Queue   HistReport `json:"queue"`
	Exec    HistReport `json:"exec"`
	Total   HistReport `json:"total"`
}

// Report is the full attribution output of one run (or, after merging,
// of a batch; merged reports drop the single-run timeline).
type Report struct {
	Runs    int    `json:"runs"`
	Cycles  uint64 `json:"cycles"`
	Ticked  uint64 `json:"ticked_cycles"`
	Skipped uint64 `json:"skipped_cycles"`
	// EngineSkipRatio is skipped / (ticked + skipped): what the
	// existing whole-machine quiescence fast-forward already claims.
	EngineSkipRatio float64 `json:"engine_skip_ratio"`
	// SkippableRatio is the fraction of component-cycles that were not
	// busy (engine-skipped cycles included): the upper bound a
	// per-component event wheel could exploit.
	SkippableRatio float64           `json:"skippable_ratio"`
	PartialSpans   uint64            `json:"partial_spans"`
	Anomalies      uint64            `json:"trace_anomalies"`
	Components     []ComponentReport `json:"components"`
	Sites          []SiteReport      `json:"sites"`
	Timeline       []Sample          `json:"timeline,omitempty"`
}

// refresh recomputes the derived ratio fields from the counters.
func (r *Report) refresh() {
	r.PartialSpans = 0
	for _, s := range r.Sites {
		r.PartialSpans += s.Partial
	}
	total := r.Ticked + r.Skipped
	r.EngineSkipRatio = 0
	r.SkippableRatio = 0
	if total == 0 {
		// Span-only ingest: no tick data, so the ratios stay zero.
		return
	}
	r.EngineSkipRatio = float64(r.Skipped) / float64(total)
	if n := len(r.Components); n > 0 {
		var skippable uint64
		for _, c := range r.Components {
			skippable += c.Skippable()
		}
		skippable += r.Skipped * uint64(n)
		r.SkippableRatio = float64(skippable) / float64(total*uint64(n))
	}
}

// Report snapshots the profile into its serializable form, closing
// open idle runs and folding still-open spans as partial. Returns nil
// on a nil receiver.
func (p *Profile) Report() *Report {
	if p == nil {
		return nil
	}
	p.finalize()
	r := &Report{
		Runs:      1,
		Cycles:    p.endCycle,
		Ticked:    p.ticked,
		Skipped:   p.skipped,
		Anomalies: p.anomalies,
	}
	for i := range p.comps {
		c := &p.comps[i]
		counts := c.activity(p.ticked)
		r.Components = append(r.Components, ComponentReport{
			Name:              c.name,
			Busy:              counts[StateBusy],
			Idle:              counts[StateIdle],
			StallLatency:      counts[StallLatency],
			StallSync:         counts[StallSync],
			StallDispatch:     counts[StallDispatch],
			StallBackpressure: counts[StallBackpressure],
			StallQueue:        counts[StallQueue],
			IdleRuns:          c.runs.report(),
		})
	}
	keys := make([]siteKey, 0, len(p.agg))
	for k := range p.agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].site != keys[j].site {
			return keys[i].site < keys[j].site
		}
		return keys[i].kind < keys[j].kind
	})
	for _, k := range keys {
		a := p.agg[k]
		r.Sites = append(r.Sites, SiteReport{
			Site:    k.site,
			Kind:    k.kind.String(),
			Count:   a.count,
			Partial: a.partial,
			Transit: a.transit.report(),
			Queue:   a.queue.report(),
			Exec:    a.exec.report(),
			Total:   a.total.report(),
		})
	}
	r.Timeline = append([]Sample(nil), p.samples...)
	r.refresh()
	return r
}

// Clone returns a deep copy of the report.
func (r *Report) Clone() *Report {
	if r == nil {
		return nil
	}
	out := *r
	out.Components = append([]ComponentReport(nil), r.Components...)
	for i := range out.Components {
		out.Components[i].IdleRuns.Buckets = append([]HistBucket(nil), out.Components[i].IdleRuns.Buckets...)
	}
	out.Sites = append([]SiteReport(nil), r.Sites...)
	for i := range out.Sites {
		s := &out.Sites[i]
		s.Transit.Buckets = append([]HistBucket(nil), s.Transit.Buckets...)
		s.Queue.Buckets = append([]HistBucket(nil), s.Queue.Buckets...)
		s.Exec.Buckets = append([]HistBucket(nil), s.Exec.Buckets...)
		s.Total.Buckets = append([]HistBucket(nil), s.Total.Buckets...)
	}
	out.Timeline = append([]Sample(nil), r.Timeline...)
	return &out
}

// MergeReports folds b into a copy of a (either may be nil) and
// returns the merged report. Counters add; histograms add bucket-wise;
// components match by name (a's order first, then b's new names in
// order) and sites by (site, kind), re-sorted. The merge is
// commutative and associative up to component ordering, and the
// single-run timeline is dropped once more than one run contributes —
// so folding per-run reports in submission order yields identical
// bytes at any Pool worker count.
func MergeReports(a, b *Report) *Report {
	if a == nil {
		return b.Clone()
	}
	if b == nil {
		return a.Clone()
	}
	out := a.Clone()
	out.Runs += b.Runs
	out.Cycles += b.Cycles
	out.Ticked += b.Ticked
	out.Skipped += b.Skipped
	out.Anomalies += b.Anomalies

	byName := map[string]int{}
	for i, c := range out.Components {
		byName[c.Name] = i
	}
	for _, c := range b.Components {
		i, ok := byName[c.Name]
		if !ok {
			byName[c.Name] = len(out.Components)
			cc := c
			cc.IdleRuns.Buckets = append([]HistBucket(nil), c.IdleRuns.Buckets...)
			out.Components = append(out.Components, cc)
			continue
		}
		d := &out.Components[i]
		d.Busy += c.Busy
		d.Idle += c.Idle
		d.StallLatency += c.StallLatency
		d.StallSync += c.StallSync
		d.StallDispatch += c.StallDispatch
		d.StallBackpressure += c.StallBackpressure
		d.StallQueue += c.StallQueue
		d.IdleRuns = mergeHist(d.IdleRuns, c.IdleRuns)
	}

	type sk struct{ site, kind string }
	bySite := map[sk]int{}
	for i, s := range out.Sites {
		bySite[sk{s.Site, s.Kind}] = i
	}
	for _, s := range b.Sites {
		i, ok := bySite[sk{s.Site, s.Kind}]
		if !ok {
			bySite[sk{s.Site, s.Kind}] = len(out.Sites)
			ss := s
			ss.Transit.Buckets = append([]HistBucket(nil), s.Transit.Buckets...)
			ss.Queue.Buckets = append([]HistBucket(nil), s.Queue.Buckets...)
			ss.Exec.Buckets = append([]HistBucket(nil), s.Exec.Buckets...)
			ss.Total.Buckets = append([]HistBucket(nil), s.Total.Buckets...)
			out.Sites = append(out.Sites, ss)
			continue
		}
		d := &out.Sites[i]
		d.Count += s.Count
		d.Partial += s.Partial
		d.Transit = mergeHist(d.Transit, s.Transit)
		d.Queue = mergeHist(d.Queue, s.Queue)
		d.Exec = mergeHist(d.Exec, s.Exec)
		d.Total = mergeHist(d.Total, s.Total)
	}
	sort.Slice(out.Sites, func(i, j int) bool {
		if out.Sites[i].Site != out.Sites[j].Site {
			return out.Sites[i].Site < out.Sites[j].Site
		}
		return out.Sites[i].Kind < out.Sites[j].Kind
	})
	if out.Runs > 1 {
		out.Timeline = nil // a timeline describes exactly one run
	}
	out.refresh()
	return out
}

// WriteJSON serializes the report as indented JSON. Field order is
// fixed by the struct definitions and every collection is a sorted
// slice, so two identical runs produce identical bytes.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// pct formats a ratio as a percentage with one decimal.
func pct(num, den uint64) string {
	if den == 0 {
		return "0.0"
	}
	return strconv.FormatFloat(100*float64(num)/float64(den), 'f', 1, 64)
}

// WriteText renders the human-readable bottleneck report.
func (r *Report) WriteText(w io.Writer) error {
	total := r.Ticked + r.Skipped
	if _, err := fmt.Fprintf(w, "runs %d; cycles %d; ticked %d; engine-skipped %d (%s%%)\n",
		r.Runs, r.Cycles, r.Ticked, r.Skipped, pct(r.Skipped, total)); err != nil {
		return err
	}
	fmt.Fprintf(w, "skippable component-cycles %.1f%% (event-skip upper bound); partial spans %d; trace anomalies %d\n",
		100*r.SkippableRatio, r.PartialSpans, r.Anomalies)
	if r.Ticked > 0 && len(r.Components) > 0 {
		fmt.Fprintf(w, "\ncomponent activity (%% of ticked cycles; engine-skipped cycles are idle for every component):\n")
		fmt.Fprintf(w, "  %-6s %6s %6s %6s %6s %6s %6s %6s  %-14s %s\n",
			"comp", "busy%", "idle%", "lat%", "sync%", "disp%", "bkpr%", "queue%", "top-stall", "idle-run p50/max")
		for _, c := range r.Components {
			top, _ := c.TopStall()
			if top == "" {
				top = "-"
			}
			fmt.Fprintf(w, "  %-6s %6s %6s %6s %6s %6s %6s %6s  %-14s %d/%d\n",
				c.Name, pct(c.Busy, r.Ticked), pct(c.Idle, r.Ticked),
				pct(c.StallLatency, r.Ticked), pct(c.StallSync, r.Ticked),
				pct(c.StallDispatch, r.Ticked), pct(c.StallBackpressure, r.Ticked),
				pct(c.StallQueue, r.Ticked), top,
				c.IdleRuns.Quantile(0.5), c.IdleRuns.Max)
		}
	}
	if len(r.Sites) > 0 {
		fmt.Fprintf(w, "\nlaunch sites (stage latency cycles, mean/p50/max):\n")
		fmt.Fprintf(w, "  %-22s %-7s %7s %7s  %-20s %-20s %-20s %-20s\n",
			"site", "kind", "count", "partial", "transit", "queue", "exec", "total")
		for _, s := range r.Sites {
			fmt.Fprintf(w, "  %-22s %-7s %7d %7d  %-20s %-20s %-20s %-20s\n",
				s.Site, s.Kind, s.Count, s.Partial,
				stageCell(s.Transit), stageCell(s.Queue), stageCell(s.Exec), stageCell(s.Total))
		}
	}
	if len(r.Timeline) > 0 {
		var peakQ, peakP int
		for _, s := range r.Timeline {
			if s.QueuedKernels > peakQ {
				peakQ = s.QueuedKernels
			}
			if s.PendingCTAs > peakP {
				peakP = s.PendingCTAs
			}
		}
		fmt.Fprintf(w, "\ntimeline: %d samples; peak queued kernels %d; peak pending CTAs %d (full series in CSV/Perfetto output)\n",
			len(r.Timeline), peakQ, peakP)
	}
	return nil
}

// stageCell renders one stage histogram as mean/p50/max.
func stageCell(h HistReport) string {
	if h.Count == 0 {
		return "-"
	}
	return strconv.FormatFloat(h.Mean(), 'f', 0, 64) + "/" +
		strconv.FormatUint(h.Quantile(0.5), 10) + "/" +
		strconv.FormatUint(h.Max, 10)
}

// WriteCSV renders the report as one flat CSV: section,key,metric,value
// rows, sorted by construction (summary, then components in order,
// then sites, then timeline), so repeat runs diff clean.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "section,key,metric,value"); err != nil {
		return err
	}
	row := func(section, key, metric, value string) {
		fmt.Fprintf(w, "%s,%s,%s,%s\n", section, key, metric, value)
	}
	fu := func(v uint64) string { return strconv.FormatUint(v, 10) }
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row("summary", "", "runs", strconv.Itoa(r.Runs))
	row("summary", "", "cycles", fu(r.Cycles))
	row("summary", "", "ticked_cycles", fu(r.Ticked))
	row("summary", "", "skipped_cycles", fu(r.Skipped))
	row("summary", "", "engine_skip_ratio", ff(r.EngineSkipRatio))
	row("summary", "", "skippable_ratio", ff(r.SkippableRatio))
	row("summary", "", "partial_spans", fu(r.PartialSpans))
	row("summary", "", "trace_anomalies", fu(r.Anomalies))
	for _, c := range r.Components {
		row("activity", c.Name, "busy", fu(c.Busy))
		row("activity", c.Name, "idle", fu(c.Idle))
		for i, v := range c.stalls() {
			row("activity", c.Name, "stall_"+stallColumns[i], fu(v))
		}
		row("activity", c.Name, "idle_run_p50", fu(c.IdleRuns.Quantile(0.5)))
		row("activity", c.Name, "idle_run_max", fu(c.IdleRuns.Max))
	}
	for _, s := range r.Sites {
		key := s.Site + "|" + s.Kind
		row("sites", key, "count", fu(s.Count))
		row("sites", key, "partial", fu(s.Partial))
		for _, st := range []struct {
			name string
			h    HistReport
		}{{"transit", s.Transit}, {"queue", s.Queue}, {"exec", s.Exec}, {"total", s.Total}} {
			row("sites", key, st.name+"_mean", ff(st.h.Mean()))
			row("sites", key, st.name+"_p50", fu(st.h.Quantile(0.5)))
			row("sites", key, st.name+"_max", fu(st.h.Max))
		}
	}
	for _, s := range r.Timeline {
		key := fu(s.Cycle)
		row("timeline", key, "queued_kernels", strconv.Itoa(s.QueuedKernels))
		row("timeline", key, "pending_ctas", strconv.Itoa(s.PendingCTAs))
		row("timeline", key, "active_warps", strconv.FormatInt(s.ActiveWarps, 10))
		row("timeline", key, "busy_smxs", strconv.Itoa(s.BusySMXs))
		row("timeline", key, "busy_banks", strconv.Itoa(s.BusyBanks))
		row("timeline", key, "utilization", ff(s.Utilization))
	}
	return nil
}
