package harness

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// entrySeeds are the results FuzzCacheEntry starts from: every registry
// scenario's (shortened to 50 us and at most a k = 4 fat-tree, so building
// the corpus stays under a second), a telemetry run's (whose series an entry
// does not keep), and hand-built ones holding the floats, names and counts a
// codec gets wrong.
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
	res.Telemetry = nil
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
	// A name and a count past one varint byte each.
	long := map[string]float64{strings.Repeat("q", 200): 1}
	many := map[string]float64{}
	for i := range 200 {
		many[fmt.Sprintf("m%03d", i)] = float64(i)
	}
	for i, m := range []map[string]float64{odd, {}, long, many} {
		seeds = append(seeds, &scenario.Result{Hash: fmt.Sprintf("sc-%016x", i), Metrics: m})
	}
	seeds = append(seeds, &scenario.Result{Hash: "", Metrics: map[string]float64{}})
	return seeds
}

// FuzzCacheEntry: any bytes under any hash decode to a miss or to a result,
// never a panic; a declared count never allocates past what the bytes left
// could hold; and a decoded result re-encodes to the bytes it came from, so
// every encoded result decodes bit for bit (checked directly on the seeds,
// -0, infinities, NaN payloads and subnormals among them).
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
	// A metrics section that declares 2^20 metrics with none behind it:
	// refused before a map is sized for them.
	huge := append(appendStr([]byte(entryMagic), "sc-0123456789abcdef"), 0x80, 0x80, 0x40)
	f.Add("sc-0123456789abcdef", huge)
	// The same result as the version before wrote it: another magic and a
	// zero byte for "no telemetry" after the metrics. A miss.
	v1 := append(bytes.Replace(seed, []byte(entryMagic), []byte("fncc-result 1\n"), 1), 0)
	f.Add("sc-0123456789abcdef", v1)
	f.Fuzz(func(t *testing.T, hash string, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, ok := decodeEntry(data, hash)
		runtime.ReadMemStats(&after)
		// The widest ratio of heap to input is the metric map, a few dozen
		// bytes per nine-byte metric; the slack covers the fixed-size structs.
		if got, limit := after.TotalAlloc-before.TotalAlloc, 32*uint64(len(data))+64<<10; got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), got, limit)
		}
		if !ok {
			if res != nil {
				t.Fatal("a miss returned a result")
			}
			return
		}
		if res.Hash != hash || !res.Cached || res.Metrics == nil || res.FCT != nil || res.Telemetry != nil {
			t.Fatalf("decoded hash %q cached %v metrics %v fct %v telemetry %v",
				res.Hash, res.Cached, res.Metrics, res.FCT, res.Telemetry)
		}
		if again := appendEntry(nil, res); !bytes.Equal(again, data) {
			t.Fatalf("decoded entry re-encodes to other bytes:\n got %x\nwant %x", again, data)
		}
	})
}

// sameBits compares two results' hashes and metrics — floats by their
// bits — and describes the first difference, or returns "" when they match.
// Spec, Cached, FCT and Telemetry are not part of an entry.
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
	return ""
}

// TestDecodeEntryForReusedBuffers pins what Runner.load's reused read
// buffer relies on: a decoded result shares no bytes with its input, and no
// proper prefix of an entry decodes, so a read cut short anywhere is a miss
// (readEntry ends at the first short read).
func TestDecodeEntryForReusedBuffers(t *testing.T) {
	for _, res := range entrySeeds(t) {
		data := appendEntry(nil, res)
		for cut := range len(data) {
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
