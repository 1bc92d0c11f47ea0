package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// JSONL is a streaming Sink writing one JSON object per event, one per
// line — the machine-readable full event stream (the Ring, by contrast,
// retains only a bounded tail). The schema is fixed and flat:
//
//	{"cycle":120,"kind":"cta-placed","kernel":3,"cta":17,"extra":2}
//
// Fields follow Event semantics: kernel 0 means "no kernel", cta -1
// means "no CTA", extra is kind-specific (SMX id for cta-placed,
// workload for launch decisions). ReadJSONL decodes the stream. Writes
// are buffered; call Close (or Flush) to drain. Write errors are sticky
// and surface from Close.
type JSONL struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONL creates a JSONL sink over w. The caller retains ownership of
// w (Close flushes but does not close it).
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 128)}
}

// Record implements Sink.
func (s *JSONL) Record(e Event) {
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	b = append(b, `{"cycle":`...)
	b = strconv.AppendUint(b, e.Cycle, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","kernel":`...)
	b = strconv.AppendInt(b, int64(e.Kernel), 10)
	b = append(b, `,"cta":`...)
	b = strconv.AppendInt(b, int64(e.CTA), 10)
	b = append(b, `,"extra":`...)
	b = strconv.AppendInt(b, int64(e.Extra), 10)
	b = append(b, "}\n"...)
	s.buf = b
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Flush drains buffered events to the underlying writer.
func (s *JSONL) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close implements Sink: it flushes and reports any sticky write error.
func (s *JSONL) Close() error { return s.Flush() }

// ReadJSONL decodes a stream written by JSONL and records its events
// into sink in order; it does not close sink. Blank lines and events of
// a kind ParseKind does not know are skipped, so a stream from a newer
// writer still reads; malformed JSON is an error naming its line.
func ReadJSONL(r io.Reader, sink Sink) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e struct {
			Cycle  uint64 `json:"cycle"`
			Kind   string `json:"kind"`
			Kernel int    `json:"kernel"`
			CTA    int    `json:"cta"`
			Extra  int    `json:"extra"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("trace line %d: %w", line, err)
		}
		if kind, ok := ParseKind(e.Kind); ok {
			sink.Record(Event{Cycle: e.Cycle, Kind: kind, Kernel: e.Kernel, CTA: e.CTA, Extra: e.Extra})
		}
	}
	return sc.Err()
}
