package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// cachePath is where the Runner keeps hash's entry.
func (r *Runner) cachePath(hash string) string { return filepath.Join(r.CacheDir, hash+entrySuffix) }

// loadSpec is Runner.load of the job sp would be; false for a spec that does
// not validate.
func (r *Runner) loadSpec(sp scenario.Spec) (*scenario.Result, bool) {
	n, err := sp.Normalize()
	if err != nil {
		return nil, false
	}
	return r.load(r.newJob(n))
}

// cheapSweep is a fast sweep used by the cache tests: a 2-host shuffle
// (alltoall consumes the seed, so the grid's seed dimension is legal).
func cheapSweep() Sweep {
	return Sweep{
		Base: scenario.Spec{Name: "tiny-shuffle", Kind: scenario.KindAllToAll,
			Scheme: "FNCC", Topo: scenario.TopoSpec{K: 2},
			Workload: scenario.WorkloadSpec{FlowBytes: 50_000}},
		Grid: Grid{Schemes: []string{"FNCC", "HPCC"}, Seeds: []int64{1, 2}},
	}
}

// TestExpandGrid: full cross product, deterministic order, base values kept
// for empty dimensions.
func TestExpandGrid(t *testing.T) {
	s := Sweep{
		Base: scenario.Spec{Kind: scenario.KindFCT, Scheme: "FNCC",
			Workload: scenario.WorkloadSpec{CDF: "websearch"}, DurationUs: 300},
		Grid: Grid{
			Schemes: []string{"FNCC", "HPCC"},
			Seeds:   []int64{1, 2, 3},
			Loads:   []float64{0.3, 0.7},
			Sizes:   []int{4, 8},
		},
	}
	if got, want := s.Grid.Points(), 24; got != want {
		t.Fatalf("Points() = %d, want %d", got, want)
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 24 {
		t.Fatalf("expanded to %d specs, want 24", len(specs))
	}
	// Outer dimension is schemes: first half FNCC, second half HPCC.
	if specs[0].Scheme != "FNCC" || specs[12].Scheme != "HPCC" {
		t.Errorf("scheme order wrong: %s / %s", specs[0].Scheme, specs[12].Scheme)
	}
	// Innermost dimension is seeds.
	if specs[0].Seed != 1 || specs[1].Seed != 2 || specs[2].Seed != 3 {
		t.Errorf("seed order wrong: %d %d %d", specs[0].Seed, specs[1].Seed, specs[2].Seed)
	}
	if specs[0].Topo.K != 4 || specs[6].Topo.K != 8 {
		t.Errorf("size not applied: K=%d / K=%d", specs[0].Topo.K, specs[6].Topo.K)
	}
	// Every point must be distinct by content hash.
	seen := map[string]bool{}
	for _, sp := range specs {
		h := sp.Hash()
		if seen[h] {
			t.Fatalf("duplicate grid point %s", h)
		}
		seen[h] = true
	}

	// Empty grid: one job, the base itself.
	one, err := Sweep{Base: s.Base}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Scheme != "FNCC" {
		t.Fatalf("empty grid expanded to %d specs", len(one))
	}

	// Invalid grid points surface as errors.
	bad := s
	bad.Grid.Sizes = []int{5} // odd fat-tree arity
	if _, err := bad.Expand(); err == nil {
		t.Error("odd fat-tree size expanded without error")
	}
	// A size below 1 is refused by value, never read as "keep the base's".
	for _, size := range []int{0, -4} {
		bad.Grid.Sizes = []int{size, 4}
		if _, err := bad.Expand(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("grid size %d", size)) {
			t.Errorf("sizes %v: error %v, want one naming grid size %d", bad.Grid.Sizes, err, size)
		}
	}
	// A value listed twice in one dimension is refused, naming both: the
	// point would run once but count twice. Backends compare by name, so ""
	// and "packet" are the same backend.
	for _, tc := range []struct {
		grid Grid
		want string
	}{
		{Grid{Seeds: []int64{1, 1}}, "grid seeds lists 1 twice"},
		{Grid{Schemes: []string{"FNCC", "HPCC", "FNCC"}}, "grid schemes lists FNCC twice"},
		{Grid{Backends: []string{"", "packet"}}, "grid backends lists packet twice"},
		{Grid{Loads: []float64{0.3, 0.5, 0.3}}, "grid loads lists 0.3 twice"},
		{Grid{Sizes: []int{4, 4}}, "grid sizes lists 4 twice"},
	} {
		dup := Sweep{Base: s.Base, Grid: tc.grid}
		if _, err := dup.Expand(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("grid %+v: error %v, want %q", tc.grid, err, tc.want)
		}
	}
}

// TestPointsSaturates: a grid whose product overflows int reports
// math.MaxInt, never a wrapped (possibly small or negative) count.
func TestPointsSaturates(t *testing.T) {
	const n = 10_000
	g := Grid{
		Schemes:  make([]string, n),
		Backends: make([]string, n),
		Seeds:    make([]int64, n),
		Loads:    make([]float64, n),
		Sizes:    make([]int, n),
	}
	if got := g.Points(); got != math.MaxInt {
		t.Fatalf("Points() = %d, want math.MaxInt", got)
	}
	g.Sizes = nil
	if got := g.Points(); got != n*n*n*n {
		t.Fatalf("Points() = %d, want %d", got, n*n*n*n)
	}
}

// TestSizeDimensionPerKind: the grid's size lands on the kind's natural
// scale knob.
func TestSizeDimensionPerKind(t *testing.T) {
	incast := Sweep{
		Base: scenario.Spec{Kind: scenario.KindIncast, Scheme: "FNCC"},
		Grid: Grid{Sizes: []int{4, 8}},
	}
	specs, err := incast.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Workload.Fanout != 4 || specs[1].Workload.Fanout != 8 {
		t.Errorf("incast sizes -> fanouts %d,%d", specs[0].Workload.Fanout, specs[1].Workload.Fanout)
	}
	hop := Sweep{
		Base: scenario.Spec{Kind: scenario.KindHop, Scheme: "FNCC"},
		Grid: Grid{Sizes: []int{4}},
	}
	if _, err := hop.Expand(); err == nil {
		t.Error("hop kind accepted a size dimension")
	}
}

// TestSweepCache is the resumability contract: a repeated sweep must be
// served entirely from the cache, performing no simulation work, and return
// identical metrics.
func TestSweepCache(t *testing.T) {
	dir := t.TempDir()
	specs, err := cheapSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}

	first := &Runner{CacheDir: dir, Workers: 2}
	res1, err := first.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := first.Stats(); hits != 0 || misses != int64(len(specs)) {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/%d", hits, misses, len(specs))
	}
	for _, r := range res1 {
		if r.Cached {
			t.Error("cold run returned a cached result")
		}
	}

	second := &Runner{CacheDir: dir, Workers: 2}
	res2, err := second.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := second.Stats(); misses != 0 || hits != int64(len(specs)) {
		t.Fatalf("warm run simulated: hits=%d misses=%d, want %d/0", hits, misses, len(specs))
	}
	for i, r := range res2 {
		if !r.Cached {
			t.Errorf("warm result %d not served from cache", i)
		}
		if len(r.Metrics) == 0 {
			t.Fatalf("warm result %d has no metrics", i)
		}
		for k, v := range res1[i].Metrics {
			if r.Metrics[k] != v {
				t.Errorf("warm result %d metric %s = %v, want %v", i, k, r.Metrics[k], v)
			}
		}
		if r.Spec.Name != specs[i].Name {
			t.Errorf("warm result lost its name: %q", r.Spec.Name)
		}
	}

	// A resumed sweep (superset grid) only simulates the new points.
	wider := cheapSweep()
	wider.Grid.Seeds = []int64{1, 2, 3}
	more, err := wider.Expand()
	if err != nil {
		t.Fatal(err)
	}
	third := &Runner{CacheDir: dir}
	if _, err := third.RunAll(more); err != nil {
		t.Fatal(err)
	}
	if hits, misses := third.Stats(); hits != int64(len(specs)) || misses != int64(len(more)-len(specs)) {
		t.Fatalf("resume: hits=%d misses=%d, want %d/%d",
			hits, misses, len(specs), len(more)-len(specs))
	}
}

// TestCachedResultEqualsFreshRun: a result is a pure function of its spec, so
// on either engine what one Runner simulates and stores, what a second Runner
// serves from that cache, and what a bare scenario.Run simulates again are
// the same result: the same spec, the same metric bits, the same
// `sweep -format json` bytes and, for a telemetry-bearing spec, the same
// exported telemetry files byte for byte. The registry holds what the
// simulated result reads: the cache hit fed it nothing.
func TestCachedResultEqualsFreshRun(t *testing.T) {
	micro := scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 400}
	fluid := scenario.Spec{Kind: scenario.KindFCT, Backend: scenario.BackendFluid, Scheme: "FNCC",
		Topo: scenario.TopoSpec{K: 4}, DurationUs: 300}
	// `sweep -telemetry`'s block on packet: every supported probe and a
	// trace; fluid has no trace.
	microTel := micro
	microTel.Telemetry = &scenario.TelemetrySpec{IntervalUs: 10, Probes: micro.SupportedProbes(), TraceCap: 4096}
	fluidTel := fluid
	fluidTel.Telemetry = &scenario.TelemetrySpec{IntervalUs: 10, Probes: []string{"rate", "link"}}
	for _, sp := range []scenario.Spec{micro, fluid, microTel, fluidTel} {
		label := sp.Kind + "/" + sp.BackendName()
		if sp.Telemetry != nil {
			label += "+telemetry"
		}
		dir, reg := t.TempDir(), obs.NewRegistry()
		stored, err := (&Runner{CacheDir: dir, Obs: reg}).Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		served, err := (&Runner{CacheDir: dir, Obs: reg}).Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if stored.Cached || !served.Cached {
			t.Fatalf("%s: cached = %v then %v, want false then true", label, stored.Cached, served.Cached)
		}
		fresh, err := scenario.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Telemetry != nil && (stored.Telemetry == nil || len(stored.Telemetry.Series) == 0 ||
			(sp.Telemetry.TraceCap > 0) != (len(stored.Telemetry.Trace) > 0)) {
			t.Fatalf("%s: the run recorded no series or no trace", label)
		}
		want := outputBytes(t, stored)
		for name, got := range map[string]*scenario.Result{"cached": served, "fresh": fresh} {
			if diff := sameBits(stored, got); diff != "" {
				t.Errorf("%s %s: %s", label, name, diff)
			}
			if !reflect.DeepEqual(got.Spec, stored.Spec) {
				t.Errorf("%s %s: spec %+v, stored %+v", label, name, got.Spec, stored.Spec)
			}
			if out := outputBytes(t, got); !reflect.DeepEqual(out, want) {
				t.Errorf("%s %s: output differs from the stored run's", label, name)
				for f, b := range want {
					if !bytes.Equal(out[f], b) {
						t.Errorf("  %s:\n%s\nstored:\n%s", f, out[f], b)
					}
				}
			}
		}
		c := reg.Snapshot().Counters
		if c[MetricEngineEvents] != int64(stored.Metrics["engine_events"]) ||
			c[MetricFluidFullPasses] != int64(stored.Metrics["fluid_full_passes"]) {
			t.Errorf("%s: registry reads %d engine events and %d fluid full passes, the simulated result %v and %v",
				label, c[MetricEngineEvents], c[MetricFluidFullPasses],
				stored.Metrics["engine_events"], stored.Metrics["fluid_full_passes"])
		}
	}
}

// outputBytes is everything the CLI prints or writes for one result, by
// file: the `sweep -format json` bytes as "-format json", and with
// telemetry every file ExportTelemetry writes.
func outputBytes(t *testing.T, res *scenario.Result) map[string][]byte {
	t.Helper()
	var js bytes.Buffer
	if err := WriteJSON(&js, Rows([]*scenario.Result{res})); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{"-format json": js.Bytes()}
	if res.Telemetry == nil {
		return out
	}
	dir := t.TempDir()
	if err := ExportTelemetry(dir, res); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if out[f.Name()], err = os.ReadFile(filepath.Join(dir, f.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCacheCorruptionIsAMiss: an entry that is not exactly this hash's
// record — cut short at any byte, empty, of another format or version,
// another hash's, with bytes after its end, or the JSON file of the format
// before it — is a miss, never an error or a wrong result: the point
// simulates again, and the entry it writes then serves a result equal to a
// fresh run.
func TestCacheCorruptionIsAMiss(t *testing.T) {
	sp := cheapSweep().Base
	other := sp
	other.Seed = 7
	fresh, err := scenario.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := &Runner{CacheDir: dir}
	if _, err := r.Run(other); err != nil {
		t.Fatal(err)
	}
	path, otherPath := r.cachePath(sp.Hash()), r.cachePath(other.Hash())
	entry := appendEntry(nil, fresh)
	otherEntry, err := os.ReadFile(otherPath)
	if err != nil {
		t.Fatal(err)
	}
	preJSON, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	version := bytes.Replace(entry, []byte(entryMagic), []byte("fncc-result 2\n"), 1)
	magic := append([]byte("{"), entry[1:]...)
	cases := map[string]func() error{
		"zero-length file": func() error { return os.WriteFile(path, nil, 0o644) },
		"wrong magic":      func() error { return os.WriteFile(path, magic, 0o644) },
		"wrong version":    func() error { return os.WriteFile(path, version, 0o644) },
		"another hash's":   func() error { return os.WriteFile(path, otherEntry, 0o644) },
		"trailing bytes":   func() error { return os.WriteFile(path, append(entry[:len(entry):len(entry)], 0), 0o644) },
		"JSON entry, no .res": func() error {
			os.Remove(path)
			return os.WriteFile(strings.TrimSuffix(path, ".res")+".json", append(preJSON, '\n'), 0o644)
		},
	}
	for cut := 1; cut < len(entry); cut++ {
		cases[fmt.Sprintf("cut at byte %d", cut)] = func() error { return os.WriteFile(path, entry[:cut], 0o644) }
	}
	for name, spoil := range cases {
		if err := spoil(); err != nil {
			t.Fatal(err)
		}
		_, missesBefore := r.Stats()
		res, err := r.Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, misses := r.Stats(); res.Cached || misses != missesBefore+1 {
			t.Errorf("%s: served as a hit (cached %v, misses %d then %d)", name, res.Cached, missesBefore, misses)
		}
		again, err := r.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Errorf("%s: the rewritten entry missed", name)
		}
		if diff := sameBits(fresh, again); diff != "" || !reflect.DeepEqual(again.Spec, fresh.Spec) {
			t.Errorf("%s: the rewritten entry serves %s (spec %+v, want %+v)", name, diff, again.Spec, fresh.Spec)
		}
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
		t.Errorf("the entry on disk is not the fresh run's record: %v", err)
	}
}

// TestExport: rows, seed aggregation, CSV and JSON shapes.
func TestExport(t *testing.T) {
	dir := t.TempDir()
	specs, err := cheapSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{CacheDir: dir}
	results, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(results)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}

	agg := Aggregate(rows)
	if len(agg) != 2 {
		t.Fatalf("aggregated to %d rows, want 2 (one per scheme)", len(agg))
	}
	if agg[0].Runs != 2 || agg[1].Runs != 2 {
		t.Errorf("aggregate runs %d/%d, want 2/2", agg[0].Runs, agg[1].Runs)
	}
	// The aggregate is the per-seed mean.
	want := (rows[0].Metrics["makespan_us"] + rows[1].Metrics["makespan_us"]) / 2
	if got := agg[0].Metrics["makespan_us"]; got != want {
		t.Errorf("aggregate mean %v, want %v", got, want)
	}

	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header+4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name,kind,scheme,backend,size,load,seed,runs") {
		t.Errorf("CSV header %q", lines[0])
	}
	if !strings.Contains(lines[0], "makespan_us") {
		t.Errorf("CSV header missing metric column: %q", lines[0])
	}

	var jsonBuf bytes.Buffer
	if err := WriteJSON(&jsonBuf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), `"scheme": "HPCC"`) {
		t.Error("JSON export missing scheme field")
	}

	if tbl := FormatTable(agg); !strings.Contains(tbl, "FNCC") || !strings.Contains(tbl, "HPCC") {
		t.Errorf("table missing schemes:\n%s", tbl)
	}
}
