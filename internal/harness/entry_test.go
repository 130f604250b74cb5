package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// entrySeeds are the results FuzzCacheEntry starts from: every registry
// scenario's (shortened to 50 us and at most a k = 4 fat-tree, so building
// the corpus stays under a second), one carrying probe series and a trace,
// and hand-built ones holding the floats and slices a codec gets wrong.
func entrySeeds(tb testing.TB) []*scenario.Result {
	var seeds []*scenario.Result
	for _, name := range scenario.Names() {
		sp, err := scenario.Lookup(name)
		if err != nil {
			tb.Fatal(err)
		}
		if sp.Normalized().DurationUs > 50 {
			sp.DurationUs = 50
		}
		if sp.Topo.K > 4 {
			sp.Topo.K = 4
		}
		res, err := scenario.Run(sp)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, res)
	}
	res, err := scenario.Run(telemetrySpec())
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, res)

	bits := math.Float64frombits
	odd := map[string]float64{
		"":               1,
		"inf":            math.Inf(1),
		"minus_inf":      math.Inf(-1),
		"minus_zero":     math.Copysign(0, -1),
		"nan":            math.NaN(),
		"nan_negative":   bits(0xfff8_0000_0000_0001),
		"nan_signalling": bits(0x7ff0_0000_0000_0001),
		"subnormal_max":  bits(0x000f_ffff_ffff_ffff),
		"subnormal_min":  math.SmallestNonzeroFloat64,
	}
	for i, tel := range []*telemetry.Output{
		nil,
		{},
		{TimesUs: []float64{}, Series: []telemetry.Series{}, Trace: []telemetry.TraceRecord{}},
		{IntervalUs: 10, Samples: -3, TimesUs: []float64{math.NaN(), -0.0},
			Series: []telemetry.Series{{Name: "nil"}, {Name: "empty", Values: []float64{}},
				{Name: "q/0", Values: []float64{math.Inf(-1), bits(1)}}},
			TraceTotal: math.MaxUint64,
			Trace: []telemetry.TraceRecord{
				{AtUs: bits(0x7ff0_0000_0000_0002), Node: math.MinInt32, Port: -1, Flow: math.MaxUint64,
					Seq: math.MinInt64, Size: math.MaxInt, RateBps: math.MaxInt64},
				{Kind: "enq", Type: "data", Node: math.MaxInt32},
				{Kind: "enq", Type: "data"},
			}},
	} {
		seeds = append(seeds, &scenario.Result{
			Hash: fmt.Sprintf("sc-%016x", i), Metrics: odd, Telemetry: tel})
	}
	seeds = append(seeds, &scenario.Result{Hash: "", Metrics: map[string]float64{}})
	return seeds
}

// FuzzCacheEntry: any bytes under any hash decode to a miss or to a result,
// never a panic; a declared count never allocates past what the bytes left
// could hold; and a decoded result re-encodes to the bytes it came from, so
// every encoded result decodes bit for bit (checked directly on the seeds,
// -0, infinities, NaN payloads, subnormals and nil or empty series and
// trace among them).
func FuzzCacheEntry(f *testing.F) {
	for _, res := range entrySeeds(f) {
		data := appendEntry(nil, res)
		got, ok := decodeEntry(data, res.Hash)
		if !ok {
			f.Fatalf("%s: seed entry does not decode", res.Hash)
		}
		if diff := sameBits(res, got); diff != "" {
			f.Fatalf("%s: seed entry decodes with %s", res.Hash, diff)
		}
		f.Add(res.Hash, data)
	}
	// The same entry with its hash length padded to two bytes: a miss, or
	// one result would have two entries.
	seed := appendEntry(nil, &scenario.Result{Hash: "sc-0123456789abcdef", Metrics: map[string]float64{"x": 1}})
	padded := append([]byte(entryMagic), 0x80|19, 0)
	f.Add("sc-0123456789abcdef", append(padded, seed[len(entryMagic)+1:]...))
	// A telemetry block whose time column declares 2^20 values with none
	// behind it: refused before 8 MiB is allocated for them.
	huge := appendEntry(nil, &scenario.Result{Hash: "sc-0123456789abcdef", Metrics: map[string]float64{}})
	huge = append(huge[:len(huge)-1], 1)
	huge = binary.AppendVarint(appendF64(huge, 10), 1)
	f.Add("sc-0123456789abcdef", binary.AppendUvarint(huge, 1<<20+1))
	f.Fuzz(func(t *testing.T, hash string, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, ok := decodeEntry(data, hash)
		runtime.ReadMemStats(&after)
		// The widest ratio of heap to input is a Series header (48 bytes)
		// per two-byte series; the slack covers the fixed-size structs.
		if got, limit := after.TotalAlloc-before.TotalAlloc, 32*uint64(len(data))+64<<10; got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), got, limit)
		}
		if !ok {
			if res != nil {
				t.Fatal("a miss returned a result")
			}
			return
		}
		if res.Hash != hash || !res.Cached || res.Metrics == nil || res.FCT != nil {
			t.Fatalf("decoded hash %q cached %v metrics %v fct %v", res.Hash, res.Cached, res.Metrics, res.FCT)
		}
		if again := appendEntry(nil, res); !bytes.Equal(again, data) {
			t.Fatalf("decoded entry re-encodes to other bytes:\n got %x\nwant %x", again, data)
		}
	})
}

// sameBits compares two results field by field — floats by their bits,
// slices by nil-ness too — and describes the first difference, or returns
// "" when they match. Spec, Cached and FCT are not part of an entry.
func sameBits(want, got *scenario.Result) string {
	if got.Hash != want.Hash {
		return fmt.Sprintf("hash %q, want %q", got.Hash, want.Hash)
	}
	if (got.Metrics == nil) != (want.Metrics == nil) || len(got.Metrics) != len(want.Metrics) {
		return fmt.Sprintf("metrics %v, want %v", got.Metrics, want.Metrics)
	}
	for k, v := range want.Metrics {
		if w, ok := got.Metrics[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
			return fmt.Sprintf("metric %q = %x, want %x", k, math.Float64bits(w), math.Float64bits(v))
		}
	}
	a, b := want.Telemetry, got.Telemetry
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("telemetry %v, want %v", b, a)
	}
	if a == nil {
		return ""
	}
	if math.Float64bits(a.IntervalUs) != math.Float64bits(b.IntervalUs) || a.Samples != b.Samples ||
		a.TraceTotal != b.TraceTotal {
		return fmt.Sprintf("telemetry header %v/%d/%d, want %v/%d/%d",
			b.IntervalUs, b.Samples, b.TraceTotal, a.IntervalUs, a.Samples, a.TraceTotal)
	}
	if d := sameCol("times_us", a.TimesUs, b.TimesUs); d != "" {
		return d
	}
	if (a.Series == nil) != (b.Series == nil) || len(a.Series) != len(b.Series) {
		return fmt.Sprintf("series %v, want %v", b.Series, a.Series)
	}
	for i := range a.Series {
		if a.Series[i].Name != b.Series[i].Name {
			return fmt.Sprintf("series %d named %q, want %q", i, b.Series[i].Name, a.Series[i].Name)
		}
		if d := sameCol(a.Series[i].Name, a.Series[i].Values, b.Series[i].Values); d != "" {
			return d
		}
	}
	if (a.Trace == nil) != (b.Trace == nil) || len(a.Trace) != len(b.Trace) {
		return fmt.Sprintf("trace of %d rows (nil %v), want %d (nil %v)",
			len(b.Trace), b.Trace == nil, len(a.Trace), a.Trace == nil)
	}
	for i := range a.Trace {
		x, y := a.Trace[i], b.Trace[i]
		if math.Float64bits(x.AtUs) != math.Float64bits(y.AtUs) {
			return fmt.Sprintf("trace row %d at %x, want %x", i, math.Float64bits(y.AtUs), math.Float64bits(x.AtUs))
		}
		x.AtUs, y.AtUs = 0, 0
		if x != y {
			return fmt.Sprintf("trace row %d %+v, want %+v", i, y, x)
		}
	}
	return ""
}

func sameCol(name string, want, got []float64) string {
	if (want == nil) != (got == nil) || len(want) != len(got) {
		return fmt.Sprintf("%s %v (nil %v), want %v (nil %v)", name, got, got == nil, want, want == nil)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Sprintf("%s[%d] = %x, want %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return ""
}

// TestDecodeEntryForReusedBuffers pins what Runner.load's reused read
// buffer relies on: a decoded result shares no bytes with its input, and no
// proper prefix of an entry decodes, so a read cut short anywhere is a miss
// (readEntry ends at the first short read).
func TestDecodeEntryForReusedBuffers(t *testing.T) {
	for _, res := range entrySeeds(t) {
		data := appendEntry(nil, res)
		// Every cut of the small entries; a few thousand spread over the
		// telemetry ones, whose decode is linear in the prefix.
		for cut := 0; cut < len(data); cut += max(1, len(data)/4096) {
			if _, ok := decodeEntry(data[:cut], res.Hash); ok {
				t.Fatalf("%s: the first %d of %d bytes decode", res.Hash, cut, len(data))
			}
		}
		got, ok := decodeEntry(data, res.Hash)
		if !ok {
			t.Fatalf("%s: seed entry does not decode", res.Hash)
		}
		for i := range data {
			data[i] = ^data[i]
		}
		if diff := sameBits(res, got); diff != "" {
			t.Errorf("%s: after its input was overwritten the result has %s", res.Hash, diff)
		}
	}
}

// TestReadEntry: readEntry returns exactly os.ReadFile's bytes on either
// side of its buffer's capacity and far past it, and fails on a missing
// path or a directory, which Runner.load then calls a miss.
func TestReadEntry(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(1, 2))
	for _, size := range []int{0, 1, entryBufSize - 1, entryBufSize, entryBufSize + 1, 1 << 20} {
		path := filepath.Join(dir, fmt.Sprintf("%d.res", size))
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A Runner.load buffer: entryBufSize of capacity, holding stale
		// bytes of an earlier read that must not leak in.
		buf := bytes.Repeat([]byte{0xa5}, entryBufSize)
		got, err := readEntry(path, buf[:entryBufSize/2])
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%d bytes: read %d bytes (equal %v), err = %v", size, len(got), bytes.Equal(got, want), err)
		}
	}
	if _, err := readEntry(filepath.Join(dir, "missing.res"), nil); err == nil {
		t.Error("a missing path read without error")
	}
	if _, err := readEntry(dir, make([]byte, 0, entryBufSize)); err == nil {
		t.Error("a directory read without error")
	}
	sp := microSpec("FNCC")
	hash := sp.Hash()
	r := &Runner{CacheDir: t.TempDir()}
	if err := os.Mkdir(r.cachePath(hash), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.loadSpec(sp); ok {
		t.Error("a directory at the entry's path loaded as a hit")
	}
}
