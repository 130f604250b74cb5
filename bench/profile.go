package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// foldProfile decodes a gzipped pprof CPU profile with the standard library
// alone and sums its CPU samples by the layer of each sample's leaf frame
// (see layerOf). Only the fields the fold needs are read: samples (leaf
// location and last value, which is CPU nanoseconds), locations (innermost
// line's function), functions (name) and the string table.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> function id of innermost line
		fnName  = map[uint64]uint64{} // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					for _, id := range varints(v, b) {
						if first {
							s.leaf, first = id, false
						}
					}
				case 2: // value, one per sample type; CPU time is the last
					for _, x := range varints(v, b) {
						s.value = int64(x)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first entry is the innermost inlined call
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
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
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := ""
		if i := fnName[locFn[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		out[layerOf(name)] += float64(s.value)
	}
	return out, nil
}

// layerOf attributes a function to a layer: "repro/internal/<pkg>.…" is
// layer <pkg>; the Go runtime's collector is "runtime.gc"; everything else
// (scheduler, allocator, syscalls, standard library, the benchmark itself)
// is "runtime.other".
func layerOf(fn string) string {
	const prefix = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, prefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, gc := range gcPrefixes {
			if strings.HasPrefix(rest, gc) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.other"
}

// gcPrefixes are the starts of the runtime function names that belong to
// the collector: marking, scanning, sweeping, scavenging, write barriers.
var gcPrefixes = []string{"gc", "scan", "grey", "mark", "sweep", "bgsweep", "bgscavenge", "wbBuf",
	"findObject", "(*gcWork)", "(*gcBits", "(*mspan).sweep", "(*sweepLocked)", "(*scavenge"}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message. Varint fields arrive in v with b
// nil; length-delimited fields arrive in b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		default:
			return errors.New("profile: unsupported wire type")
		}
	}
	return nil
}

// varints returns a repeated integer field's values, packed (b) or not (v).
func varints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
