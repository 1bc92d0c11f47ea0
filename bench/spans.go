package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed public call. Spans nest: the op span is the parent of
// the sim calls it makes, and every span of an op carries the op's id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`     // id of the root span
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the time child spans cover
}

// tracer times calls. A nil tracer only measures; a non-nil one also keeps
// every call as a span in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	pass  string
	spans []span
	open  []int // ids of the spans in progress, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span runs f as the call name and returns its duration.
func (t *tracer) span(name string, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	s := span{ID: len(t.spans), Parent: -1, Pass: t.pass, Name: name}
	s.Op = s.ID
	if n := len(t.open); n > 0 {
		p := t.spans[t.open[n-1]]
		s.Parent, s.Op = p.ID, p.Op
	}
	t.open = append(t.open, s.ID)
	start := time.Now()
	s.Start = start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	f()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	d := end.Sub(start)
	t.spans[s.ID].End = end.Sub(t.t0).Nanoseconds()
	// Children run inside their parent one after another, so subtracting
	// each child's duration leaves the parent's self time.
	t.spans[s.ID].Self += d.Nanoseconds()
	if s.Parent >= 0 {
		t.spans[s.Parent].Self -= d.Nanoseconds()
	}
	return d
}

// selfMs sums, in milliseconds, the self time of the pass's spans whose
// name starts with prefix.
func (t *tracer) selfMs(pass, prefix string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Pass == pass && strings.HasPrefix(s.Name, prefix) {
			ns += s.Self
		}
	}
	return float64(ns) / 1e6
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
