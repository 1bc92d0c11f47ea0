package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads runtime/pprof CPU profiles with the standard library
// alone (go.mod has no dependencies): just the profile.proto fields that
// attribution needs.

// cpuSample is one profile sample: how many times the stack was seen and
// its function names, innermost first.
type cpuSample struct {
	count int64
	stack []string
}

var errProto = errors.New("malformed profile")

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]uint64{}   // function id -> string index of its name
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(&s.locs, v, b)
				case 2:
					return repeated(&vals, v, b)
				}
				return nil
			})
			if err != nil || len(vals) == 0 {
				return errProto
			}
			s.count = int64(vals[0])
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; inlined callees come before their caller
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields calls f for each field of the protobuf message b: v carries a
// varint field's value, data a length-delimited field's bytes.
func fields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(b) < size {
				return errProto
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := f(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated varint field, packed (data) or not (v).
func repeated(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// layers maps each spawnsim package to the layer its CPU share counts for.
var layers = map[string]string{
	"spawnsim/internal/inputs":     "inputs",
	"spawnsim/internal/workloads":  "workloads",
	"spawnsim/internal/sim":        "sim",
	"spawnsim/internal/sim/smx":    "smx",
	"spawnsim/internal/sim/gmu":    "gmu",
	"spawnsim/internal/sim/mem":    "mem",
	"spawnsim/internal/sim/kernel": "kernel",
	"spawnsim/internal/runtime":    "policy",
	"spawnsim/internal/core":       "policy",
	"spawnsim/internal/dtbl":       "policy",
	"spawnsim/internal/trace":      "trace",
	"spawnsim/internal/metrics":    "metrics",
	"spawnsim/internal/profile":    "profile",
}

// cpuShares returns each layer's share of all samples: a sample counts for
// the layer of its innermost spawnsim frame. Samples under GC workers count
// as "gort.gc"; samples inside runtime.mallocgc also count as "gort.malloc",
// besides their layer.
func cpuShares(samples []cpuSample) map[string]float64 {
	shares := map[string]float64{}
	var total int64
	for _, s := range samples {
		total += s.count
		layer := ""
		for _, fn := range s.stack {
			switch {
			case fn == "runtime.gcBgMarkWorker":
				layer = "gort.gc"
			case fn == "runtime.mallocgc":
				shares["gort.malloc"] += float64(s.count)
			case layer == "" && strings.HasPrefix(fn, "spawnsim/"):
				layer = layers[pkgOf(fn)]
			}
		}
		if layer != "" {
			shares[layer] += float64(s.count)
		}
	}
	for k := range shares {
		shares[k] /= float64(max(total, 1))
	}
	return shares
}

// pkgOf returns the package path of a fully qualified function name such
// as "spawnsim/internal/sim/mem.(*Cache).Access".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
