package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// A Registry holds the named instruments of one simulation run. The zero
// value of the pointer (nil) is the disabled registry: every constructor
// on it returns a nil instrument whose methods no-op, so instrumented
// code pays only a nil check when metrics are off.
//
// Instruments are identified by name plus an ordered list of label
// key/value pairs, passed as alternating strings:
//
//	placed := reg.Counter("smx_ctas_placed", "smx", "3")
//
// Re-registering an existing (name, labels) identity replaces the prior
// instrument; this makes it safe to instrument a fresh simulator with a
// registry that outlives it (the snapshot reflects the latest run).
type Registry struct {
	mu     sync.Mutex
	series []*series
	index  map[string]int // identity key -> position in series
}

// series is one registered instrument.
type series struct {
	name   string
	labels []Label
	kind   string // "counter", "gauge", "histogram"

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // lazy collector (counter/gauge kinds)
}

// Label is one name=value dimension of an instrument.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// NewRegistry creates an enabled registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}}
}

// parseLabels validates alternating key/value strings.
func parseLabels(name string, kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd label list %v", name, kv))
	}
	if len(kv) == 0 {
		return nil
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	return out
}

// identity builds the registry key of an instrument.
func identity(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register inserts or replaces a series.
func (r *Registry) register(s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := identity(s.name, s.labels)
	if pos, ok := r.index[key]; ok {
		r.series[pos] = s
		return
	}
	r.index[key] = len(r.series)
	r.series = append(r.series, s)
}

// Counter registers (or replaces) a monotonically increasing counter.
// On a nil registry it returns nil, which is safe to use.
func (r *Registry) Counter(name string, labelKV ...string) *Counter {
	if r == nil {
		return nil
	}
	//spawnvet:allow hotpath miss path of the registry's series table: the engine registers a launch site's counters once, on a miss of its site memo (sim.GPU.siteFor)
	c := &Counter{}
	//spawnvet:allow hotpath miss path of the registry's series table, as above
	r.register(&series{name: name, labels: parseLabels(name, labelKV), kind: "counter", counter: c})
	return c
}

// Gauge registers (or replaces) a gauge. Nil registry returns nil.
func (r *Registry) Gauge(name string, labelKV ...string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(&series{name: name, labels: parseLabels(name, labelKV), kind: "gauge", gauge: g})
	return g
}

// Histogram registers (or replaces) a latency histogram with exponential
// (power-of-two) buckets. Nil registry returns nil.
func (r *Registry) Histogram(name string, labelKV ...string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.register(&series{name: name, labels: parseLabels(name, labelKV), kind: "histogram", hist: h})
	return h
}

// CounterFunc registers a lazy counter evaluated at snapshot time; ideal
// for values a component already tracks (cache hit counts, clock), so the
// hot path pays nothing. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() float64, labelKV ...string) {
	if r == nil {
		return
	}
	r.register(&series{name: name, labels: parseLabels(name, labelKV), kind: "counter", fn: fn})
}

// GaugeFunc registers a lazy gauge evaluated at snapshot time.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64, labelKV ...string) {
	if r == nil {
		return
	}
	r.register(&series{name: name, labels: parseLabels(name, labelKV), kind: "gauge", fn: fn})
}

// Counter is a monotonically increasing count. A nil *Counter is the
// disabled instrument: Inc/Add no-op.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d (which must be non-negative in spirit; not enforced).
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous value. A nil *Gauge no-ops.
type Gauge struct{ v float64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// SetMax raises the gauge to v if v exceeds it (high-water marks).
func (g *Gauge) SetMax(v float64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value returns the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the bucket count of a Histogram: bucket i counts
// observations v with 2^(i-1) < v <= 2^i (bucket 0: v <= 1), and the
// last bucket is unbounded.
const histBuckets = 33

// Histogram accumulates non-negative integer observations (cycle counts)
// into power-of-two buckets, tracking count, sum, min and max. A nil
// *Histogram no-ops.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     float64
	min     uint64
	max     uint64
}

// Observe folds one observation into the histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := bits.Len64(v) // v<=1 -> 0 or 1; 2^(k-1)<v<=2^k -> k or k+1
	if v > 0 && v&(v-1) == 0 {
		i-- // exact powers of two belong to their own bucket
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += float64(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the mean observation (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Metric is one instrument's state in a Snapshot.
type Metric struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Type   string  `json:"type"`
	// Value carries counters and gauges.
	Value float64 `json:"value"`
	// Histogram fields (Type == "histogram" only).
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Min     uint64   `json:"min,omitempty"`
	Max     uint64   `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one histogram bucket: Count observations with value <= Le
// (and greater than the previous bucket's Le).
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Snapshot is a point-in-time copy of every instrument, sorted by name
// then labels for deterministic output.
type Snapshot struct {
	Cycle   uint64   `json:"cycle"`
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures the registry at the given simulation cycle. It may
// be called mid-run; lazy collectors are evaluated at call time. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot(cycle uint64) Snapshot {
	snap := Snapshot{Cycle: cycle}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.series {
		m := Metric{Name: s.name, Labels: s.labels, Type: s.kind}
		switch {
		case s.fn != nil:
			m.Value = s.fn()
		case s.counter != nil:
			m.Value = float64(s.counter.v)
		case s.gauge != nil:
			m.Value = s.gauge.v
		case s.hist != nil:
			h := s.hist
			m.Count = h.count
			m.Sum = h.sum
			m.Min = h.min
			m.Max = h.max
			m.Value = h.Mean()
			for i, c := range h.buckets {
				if c == 0 {
					continue
				}
				le := math.Inf(1)
				if i < histBuckets-1 {
					le = float64(uint64(1) << uint(i))
				}
				m.Buckets = append(m.Buckets, Bucket{Le: le, Count: c})
			}
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	sort.Slice(snap.Metrics, func(i, j int) bool {
		a, b := snap.Metrics[i], snap.Metrics[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return identity(a.Name, a.Labels) < identity(b.Name, b.Labels)
	})
	return snap
}

// Find returns the first snapshot metric with the given name and label
// pairs (alternating key/value), or nil. Test and tooling helper.
func (s Snapshot) Find(name string, labelKV ...string) *Metric {
	want := identity(name, parseLabels(name, labelKV))
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if identity(m.Name, m.Labels) == want {
			return m
		}
	}
	return nil
}
