package harness

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

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
// serves from that cache, and what a bare scenario.Run simulates again carry
// the same metric keys with the same bits. The registry holds what the
// simulated result reads: the cache hit fed it nothing.
func TestCachedResultEqualsFreshRun(t *testing.T) {
	for _, sp := range []scenario.Spec{
		{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 400},
		{Kind: scenario.KindFCT, Backend: scenario.BackendFluid, Scheme: "FNCC",
			Topo: scenario.TopoSpec{K: 4}, DurationUs: 300},
	} {
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
			t.Fatalf("%s: cached = %v then %v, want false then true", sp.Kind, stored.Cached, served.Cached)
		}
		fresh, err := scenario.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		for label, got := range map[string]*scenario.Result{"cached": served, "fresh": fresh} {
			if len(got.Metrics) != len(stored.Metrics) {
				t.Errorf("%s %s: keys %v, stored %v", sp.Kind, label, got.MetricNames(), stored.MetricNames())
			}
			for k, v := range stored.Metrics {
				if w, ok := got.Metrics[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
					t.Errorf("%s %s: %s = %v, stored %v", sp.Kind, label, k, w, v)
				}
			}
		}
		c := reg.Snapshot().Counters
		if c[MetricEngineEvents] != int64(stored.Metrics["engine_events"]) ||
			c[MetricFluidFullPasses] != int64(stored.Metrics["fluid_full_passes"]) {
			t.Errorf("%s: registry reads %d engine events and %d fluid full passes, the simulated result %v and %v",
				sp.Kind, c[MetricEngineEvents], c[MetricFluidFullPasses],
				stored.Metrics["engine_events"], stored.Metrics["fluid_full_passes"])
		}
	}
}

// TestCacheCorruptionIsAMiss: a truncated or tampered cache file re-runs
// the simulation instead of failing or returning garbage.
func TestCacheCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	sp := scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 400}
	r := &Runner{CacheDir: dir}
	if _, err := r.Run(sp); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, sp.Hash()+".json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("corrupt cache entry served as a hit")
	}
	if _, misses := r.Stats(); misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
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
