package harness

import (
	"encoding/csv"
	"io"
	"strconv"
)

// Every CSV emitter formats floats with strconv precision -1: the
// shortest string that round-trips the exact float64. Fixed 6-digit
// precision silently rounded cycle counts in the 1e9 range, breaking
// the byte-identical artifact contract between runs that differ only
// past the sixth significant digit.

// WriteCSV emits the table as CSV (label column first) for plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"benchmark"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := make([]string, 0, len(r.Values)+1)
		rec = append(rec, r.Label)
		for _, v := range r.Values {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the Figure 5 sweep as CSV.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"benchmark", "threshold", "offload", "speedup"}); err != nil {
		return err
	}
	for _, p := range r.Points {
		if err := cw.Write([]string{
			r.Benchmark,
			strconv.FormatFloat(p.Threshold, 'g', -1, 64),
			strconv.FormatFloat(p.Offload, 'g', -1, 64),
			strconv.FormatFloat(p.Speedup, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
