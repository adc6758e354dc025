package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reduces a CPU profile (the gzipped protobuf runtime/pprof
// writes) to leaf samples per layer. Only the profile fields the
// reduction needs are decoded: samples (stack of location ids + values),
// locations (id + inlined lines, leaf first), functions (id + name) and
// the string table.

// LayerOf maps a fully qualified function name to its layer:
// nucanet/internal/<pkg> -> <pkg>; runtime and GC frames -> runtime;
// slices and sort -> sort; the HTTP and socket stack -> transport;
// everything else -> other.
func LayerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "nucanet/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "nucanet/internal/"), "/", 2)[0]
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg":
		return "runtime"
	case pkg == "slices" || pkg == "sort":
		return "sort"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "syscall" ||
		pkg == "internal/poll" || pkg == "bufio":
		return "transport"
	}
	return "other"
}

// packageOf strips the function part from a pprof function name such as
// "nucanet/internal/router.(*VCRouter).Tick" or
// "slices.pdqsortCmpFunc[go.shape.int]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// LayerSamples decodes a gzipped CPU profile and counts its samples by
// the layer of each sample's leaf function.
func LayerSamples(r io.Reader) (map[string]int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}  // function id -> name string index
		leaf    = map[uint64]uint64{} // location id -> leaf function id
		samples []sample
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4:
			id, fn, err := decodeLocation(b)
			leaf[id] = fn
			return err
		case 5:
			id, name, err := decodeFunction(b)
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := ""
		if fn, ok := leaf[s.leaf]; ok {
			if i := funcs[fn]; i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
		}
		out[LayerOf(name)] += s.count
	}
	return out, nil
}

type sample struct {
	leaf  uint64 // first location id: the innermost frame
	count int64  // first value: the sample count
}

func decodeSample(b []byte) (sample, error) {
	var s sample
	var locs, vals []uint64
	err := eachField(b, func(num, wire int, v uint64, p []byte) error {
		switch num {
		case 1:
			locs = appendVarints(locs, wire, v, p)
		case 2:
			vals = appendVarints(vals, wire, v, p)
		}
		return nil
	})
	if len(locs) > 0 {
		s.leaf = locs[0]
	}
	if len(vals) > 0 {
		s.count = int64(vals[0])
	}
	return s, err
}

// decodeLocation returns the location id and the function of its first
// line, which is the innermost of any inlined frames.
func decodeLocation(b []byte) (id, fn uint64, err error) {
	first := true
	err = eachField(b, func(num, wire int, v uint64, p []byte) error {
		switch {
		case num == 1:
			id = v
		case num == 4 && first:
			first = false
			return eachField(p, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					fn = v
				}
				return nil
			})
		}
		return nil
	})
	return id, fn, err
}

func decodeFunction(b []byte) (id uint64, name int64, err error) {
	err = eachField(b, func(num, wire int, v uint64, _ []byte) error {
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	return id, name, err
}

// appendVarints collects a repeated integer field in either encoding:
// one varint per field (wire type 0) or a packed run (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, p []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		p = p[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling f with each field's number
// and wire type and either its varint value or its length-delimited
// bytes. Fixed-width fields are skipped.
func eachField(b []byte, f func(num, wire int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var p []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			p, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, p); err != nil {
			return err
		}
	}
	return nil
}
