package harness

import (
	"bytes"
	"encoding/binary"
	"math"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// A cache entry, <hash>.res, is one result as a compact binary record:
//
//	magic      "fncc-result 1\n"
//	hash       str
//	metrics    uvarint n, then n × (str name, f64 value), names strictly ascending
//	telemetry  byte 0 (none) or 1, then:
//	  interval_us f64, samples varint, times_us col,
//	  series      list of (str name, col values),
//	  trace_total uvarint,
//	  trace       list of rows (f64 at_us, str kind, varint node, varint port,
//	              str type, uvarint flow, varint seq, varint size, varint rate_bps)
//
// where str is a uvarint length and the bytes, f64 is the IEEE bits as a
// little-endian uint64, col is a list of f64, and a list is a uvarint n+1
// followed by n elements, 0 standing for a nil slice. The entry ends there:
// trailing bytes make it a miss like any other malformed entry. The spec is
// not stored — the file name is its hash — and neither are the per-flow
// records (Result.FCT).
const entryMagic = "fncc-result 1\n"

// The fewest bytes one element of each counted section takes, so a declared
// count is checked against the input left before anything is allocated.
const (
	minMetric = 9  // empty name + value
	minSeries = 2  // empty name + nil column
	minRow    = 16 // value + seven one-byte fields
)

// appendEntry appends res's cache entry to b.
func appendEntry(b []byte, res *scenario.Result) []byte {
	b = append(b, entryMagic...)
	b = appendStr(b, res.Hash)
	b = binary.AppendUvarint(b, uint64(len(res.Metrics)))
	for _, name := range res.MetricNames() {
		b = appendStr(b, name)
		b = appendF64(b, res.Metrics[name])
	}
	tel := res.Telemetry
	if tel == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendF64(b, tel.IntervalUs)
	b = binary.AppendVarint(b, int64(tel.Samples))
	b = appendCol(b, tel.TimesUs)
	b = appendLen(b, tel.Series == nil, len(tel.Series))
	for _, s := range tel.Series {
		b = appendStr(b, s.Name)
		b = appendCol(b, s.Values)
	}
	b = binary.AppendUvarint(b, tel.TraceTotal)
	b = appendLen(b, tel.Trace == nil, len(tel.Trace))
	for _, t := range tel.Trace {
		b = appendF64(b, t.AtUs)
		b = appendStr(b, t.Kind)
		b = binary.AppendVarint(b, int64(t.Node))
		b = binary.AppendVarint(b, int64(t.Port))
		b = appendStr(b, t.Type)
		b = binary.AppendUvarint(b, t.Flow)
		b = binary.AppendVarint(b, t.Seq)
		b = binary.AppendVarint(b, int64(t.Size))
		b = binary.AppendVarint(b, t.RateBps)
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendLen(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendCol(b []byte, col []float64) []byte {
	b = appendLen(b, col == nil, len(col))
	for _, v := range col {
		b = appendF64(b, v)
	}
	return b
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
	switch d.byte() {
	case 0:
	case 1:
		res.Telemetry = d.telemetry()
	default:
		d.fail()
	}
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

// varint undoes binary.AppendVarint's zig-zag encoding.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// int reads a varint that must fit an int.
func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if d.bad || d.left() < 1 {
		d.fail()
		return 0
	}
	d.off++
	return d.b[d.off-1]
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

func (d *decoder) str() string { return string(d.bytes()) }

// fits checks a declared count of elements, each at least minSize bytes
// long, against the bytes left, before anything is allocated for them.
func (d *decoder) fits(n uint64, minSize int) int {
	if d.bad || n > uint64(d.left()/minSize) {
		d.fail()
		return 0
	}
	return int(n)
}

// list reads a list header; isNil reports the 0 that stands for a nil slice.
func (d *decoder) list(minSize int) (n int, isNil bool) {
	v := d.uvarint()
	if d.bad || v == 0 {
		return 0, !d.bad
	}
	return d.fits(v-1, minSize), false
}

// metrics reads the sorted (name, value) pairs. The section is walked twice:
// once to check it, then to fill the map with names cut from one string
// copy of it, so n metrics cost one string allocation, not n.
func (d *decoder) metrics() map[string]float64 {
	n := d.fits(d.uvarint(), minMetric)
	start := d.off
	var prev []byte
	for i := 0; i < n && !d.bad; i++ {
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

func (d *decoder) col() []float64 {
	n, isNil := d.list(8)
	if d.bad || isNil {
		return nil
	}
	col := make([]float64, n)
	for i := range col {
		col[i] = d.f64()
	}
	return col
}

func (d *decoder) telemetry() *telemetry.Output {
	tel := &telemetry.Output{IntervalUs: d.f64(), Samples: d.int(), TimesUs: d.col()}
	if n, isNil := d.list(minSeries); !isNil && !d.bad {
		tel.Series = make([]telemetry.Series, n)
		for i := range tel.Series {
			tel.Series[i] = telemetry.Series{Name: d.str(), Values: d.col()}
		}
	}
	tel.TraceTotal = d.uvarint()
	if n, isNil := d.list(minRow); !isNil && !d.bad {
		tel.Trace = make([]telemetry.TraceRecord, n)
		for i := range tel.Trace {
			t := &tel.Trace[i]
			t.AtUs, t.Kind = d.f64(), d.str()
			node := d.varint()
			if int64(int32(node)) != node {
				d.fail()
			}
			t.Node, t.Port, t.Type = int32(node), d.int(), d.str()
			t.Flow, t.Seq, t.Size, t.RateBps = d.uvarint(), d.varint(), d.int(), d.varint()
		}
	}
	return tel
}
