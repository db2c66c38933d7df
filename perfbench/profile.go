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

// layers are the buckets of the host-time attribution: the madgo packages a
// CPU-profile sample can land in, "bench" for the benchmark's own code,
// "gc" for samples with no madgo frame at all (garbage collection and the
// scheduler) and "other" for the remaining madgo packages (topo, trace,
// fault and the facade itself).
var layers = []string{"vtime", "fluid", "hw", "mad", "route", "fwd", "agg", "flow",
	"health", "flight", "obs", "coll", "gc", "bench", "other"}

// layerOf maps a profiled function name to its layer, or "" when the
// function is not madgo code.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "madgo/internal/"):
		pkg := strings.TrimPrefix(fn, "madgo/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "drivers":
			return "mad" // the transmission modules under the mad layer
		case "vtime", "fluid", "hw", "mad", "route", "fwd", "agg", "flow",
			"health", "flight", "obs", "coll":
			return pkg
		}
		return "other"
	case strings.HasPrefix(fn, "madgo."):
		return "other"
	}
	return ""
}

// attribute decodes a gzipped pprof CPU profile and counts its samples per
// layer: each sample goes to the innermost madgo (or benchmark) frame on its
// stack, and to "gc" when there is none.
func attribute(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = map[uint64]int64{} // function id -> string index
		locFuncs = map[uint64][]uint64{}
		samples  []pbSample
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2:
			s, err := parseSample(b)
			samples = append(samples, s)
			return err
		case 4:
			id, fns, err := parseLocation(b)
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		layer := "gc"
	stack:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcName[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function name index %d out of range", idx)
				}
				if l := layerOf(strs[idx]); l != "" {
					layer = l
					break stack
				}
			}
		}
		if len(s.values) > 0 {
			out[layer] += s.values[0]
		}
	}
	return out, nil
}

type pbSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func parseSample(b []byte) (pbSample, error) {
	var s pbSample
	err := eachField(b, func(f int, v uint64, packed []byte) error {
		switch f {
		case 1:
			return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
		case 2:
			return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
		}
		return nil
	})
	return s, err
}

// parseLocation returns a location's id and the function ids of its lines,
// innermost inlined function first.
func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := eachField(b, func(f int, v uint64, line []byte) error {
		switch f {
		case 1:
			id = v
		case 4:
			return eachField(line, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

// eachVarint calls fn for a repeated integer field given either one
// unpacked value (b == nil) or a packed run of varints.
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with the field number
// and either the varint value or, for length-delimited fields, the bytes.
// Fixed-width fields are skipped; pprof profiles use none that matter here.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
	}
	return nil
}
