package harness

import (
	"bytes"
	"encoding/binary"
	"math"

	"repro/internal/scenario"
)

// A cache entry, <hash>.res, is one result as a compact binary record:
//
//	magic      "fncc-result 2\n"
//	hash       str
//	metrics    uvarint n, then n × (str name, f64 value), names strictly ascending
//
// where str is a uvarint length and the bytes, and f64 is the IEEE bits as a
// little-endian uint64. The entry ends there: trailing bytes make it a miss
// like any other malformed entry. The spec is not stored — the file name is
// its hash — and neither are the per-flow records (Result.FCT) or a
// telemetry run's series, which the spec reproduces (Runner.replay).
// Version 1 entries, which carried a telemetry block, read as misses.
const entryMagic = "fncc-result 2\n"

// minMetric is the fewest bytes one metric takes: an empty name and the
// value.
const minMetric = 9

// appendEntry appends res's cache entry to b.
func appendEntry(b []byte, res *scenario.Result) []byte {
	b = append(b, entryMagic...)
	b = appendStr(b, res.Hash)
	b = binary.AppendUvarint(b, uint64(len(res.Metrics)))
	for _, name := range res.MetricNames() {
		b = appendStr(b, name)
		b = appendF64(b, res.Metrics[name])
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// decodeEntry parses a cache entry that must have been written for hash.
// Anything else — a short or overlong file, another magic or version, another
// hash's entry, a count larger than the bytes left could hold — is not ok,
// which the Runner treats as a miss. The result's Spec is left for the
// caller to fill.
func decodeEntry(data []byte, hash string) (*scenario.Result, bool) {
	if len(data) < len(entryMagic) || string(data[:len(entryMagic)]) != entryMagic {
		return nil, false
	}
	d := &decoder{b: data, off: len(entryMagic)}
	if string(d.bytes()) != hash {
		return nil, false
	}
	res := &scenario.Result{Hash: hash, Metrics: d.metrics(), Cached: true}
	if d.bad || d.off != len(d.b) {
		return nil, false
	}
	return res, true
}

// decoder reads an entry front to back. The first malformed field sets bad;
// every later read is then a no-op returning zero values, so callers check
// once at the end.
type decoder struct {
	b   []byte
	off int
	bad bool
}

func (d *decoder) fail() { d.bad = true }

func (d *decoder) left() int { return len(d.b) - d.off }

func (d *decoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	// n <= 0 is a cut or overflowing varint. A zero last byte after the
	// first is a padded one, which binary.Uvarint accepts: refused, so one
	// result has one entry.
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) f64() float64 {
	if d.bad || d.left() < 8 {
		d.fail()
		return 0
	}
	d.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off-8:]))
}

// bytes reads a str field without copying it.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.bad || n > uint64(d.left()) {
		d.fail()
		return nil
	}
	d.off += int(n)
	return d.b[d.off-int(n) : d.off]
}

// metrics reads the sorted (name, value) pairs. The declared count is
// checked against the bytes left before anything is allocated. The section
// is walked twice: once to check it, then to fill the map with names cut
// from one string copy of it, so n metrics cost one string allocation, not n.
func (d *decoder) metrics() map[string]float64 {
	n := d.uvarint()
	if n > uint64(d.left()/minMetric) {
		d.fail()
	}
	start := d.off
	var prev []byte
	for i := uint64(0); i < n && !d.bad; i++ {
		name := d.bytes()
		if i > 0 && bytes.Compare(prev, name) >= 0 {
			d.fail()
		}
		prev = name
		d.f64()
	}
	if d.bad {
		return nil
	}
	sec := string(d.b[start:d.off])
	m := make(map[string]float64, n)
	for p := 0; p < len(sec); {
		l, k := binary.Uvarint(d.b[start+p:])
		p += k
		name := sec[p : p+int(l)]
		p += int(l)
		m[name] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[start+p:]))
		p += 8
	}
	return m
}
