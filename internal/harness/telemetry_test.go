package harness

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// telemetrySpec is a cheap incast with probes and a trace cap, used by the
// cache and export tests.
func telemetrySpec() scenario.Spec {
	return scenario.Spec{
		Name:   "probe-incast",
		Kind:   scenario.KindIncast,
		Scheme: "FNCC",
		Workload: scenario.WorkloadSpec{
			Fanout:    4,
			FlowBytes: 20_000,
		},
		DurationUs: 1000,
		Telemetry: &scenario.TelemetrySpec{
			IntervalUs: 10,
			Probes:     []string{"queue", "host"},
			TraceCap:   128,
		},
	}
}

// TestCacheKeysUnchangedByTelemetryLayer pins cache keys for specs without
// a telemetry block: they must canonicalize byte-for-byte as they did when
// the keys were captured, so sweep caches written by earlier builds of the
// same cache epoch stay valid. The values below are the fncc-scenario-v2
// keys (the epoch bumped with the engine's canonical collision-order
// change). A block, zero or configured, keeps the key: probes only observe.
func TestCacheKeysUnchangedByTelemetryLayer(t *testing.T) {
	pinned := map[string]string{
		"micro":               "sc-aed404ce9f8898de",
		"incast":              "sc-494032cbfb559e74",
		"fct-websearch":       "sc-e7d6670fa8fd5bcc",
		"fct-websearch-fluid": "sc-b28b07433ca15a81",
		"permutation-fluid":   "sc-a30191ec6f7ae645",
	}
	for name, want := range pinned {
		sp, err := scenario.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sp.Hash(); got != want {
			t.Errorf("%s: hash %s, want pre-telemetry %s", name, got, want)
		}
		// An explicit zero telemetry block normalizes away entirely.
		sp.Telemetry = &scenario.TelemetrySpec{}
		if got := sp.Hash(); got != want {
			t.Errorf("%s: zero telemetry block changed hash to %s", name, got)
		}
		if sp.Normalized().Telemetry != nil {
			t.Errorf("%s: zero telemetry block survived normalization", name)
		}
		// A configured block keeps the key too: a sampled run is the
		// unsampled one, observed.
		sp.Telemetry = &scenario.TelemetrySpec{IntervalUs: 10, Probes: []string{"queue"}}
		if sp.BackendName() == scenario.BackendFluid {
			sp.Telemetry.Probes = []string{"rate"}
		}
		if got := sp.Hash(); got != want {
			t.Errorf("%s: telemetry-on spec hashes %s, not the telemetry-off %s", name, got, want)
		}
	}
}

// TestTelemetryNormalization: probe order does not affect the cache key.
func TestTelemetryNormalization(t *testing.T) {
	a, b := telemetrySpec(), telemetrySpec()
	a.Telemetry.Probes = []string{"host", "queue"}
	b.Telemetry.Probes = []string{"queue", "host", "host"}
	if a.Hash() != b.Hash() {
		t.Fatal("probe order changed the cache key")
	}
}

func TestTelemetryValidation(t *testing.T) {
	bad := telemetrySpec()
	bad.Telemetry.IntervalUs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero interval with probes validated")
	}
	bad = telemetrySpec()
	bad.Telemetry.Probes = []string{"rate"} // fluid-only probe on packet
	if err := bad.Validate(); err == nil {
		t.Error("fluid probe on packet backend validated")
	}
	fl := scenario.Spec{
		Kind: scenario.KindIncast, Backend: scenario.BackendFluid,
		Scheme:   "FNCC",
		Workload: scenario.WorkloadSpec{Fanout: 4, FlowBytes: 20_000},
		Telemetry: &scenario.TelemetrySpec{
			IntervalUs: 10, Probes: []string{"rate", "link"},
		},
	}
	if err := fl.Validate(); err != nil {
		t.Errorf("fluid telemetry spec rejected: %v", err)
	}
	fl.Telemetry.Probes = []string{"queue"}
	if err := fl.Validate(); err == nil {
		t.Error("packet probe on fluid backend validated")
	}
	fl.Telemetry.Probes = []string{"rate"}
	fl.Telemetry.TraceCap = 64
	if err := fl.Validate(); err == nil {
		t.Error("trace_cap on fluid backend validated")
	}
}

// TestTelemetryReplayIsAudited: a telemetry run simulates whatever the
// cache holds, writes nothing to it, and is checked against the plain
// point's entry. A run that matches counts as verified and leaves the
// cache's files as they were; an entry whose simulated metric lost one bit
// fails the run, naming the hash and the key.
func TestTelemetryReplayIsAudited(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	r := &Runner{CacheDir: dir, Obs: reg}
	sp := telemetrySpec()
	plain := sp
	plain.Telemetry = nil

	// No entry yet: the run simulates, stores nothing and verifies nothing.
	if _, err := r.Run(sp); err != nil {
		t.Fatal(err)
	}
	if n := entryCount(t, dir); n != 0 {
		t.Fatalf("a telemetry run stored %d entries", n)
	}
	stored, err := r.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	path := r.cachePath(stored.Hash)
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		res, err := r.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || res.Hash != stored.Hash || res.Telemetry == nil || res.Telemetry.Samples == 0 ||
			res.Telemetry.TraceTotal == 0 || res.Metrics["telemetry_samples"] == 0 {
			t.Fatalf("replay %d: cached %v, hash %s (plain %s), telemetry %v", i, res.Cached, res.Hash, stored.Hash, res.Telemetry != nil)
		}
		if c := reg.Snapshot().Counters; c[MetricReplayVerified] != int64(i) || c[MetricReplayMismatch] != 0 {
			t.Fatalf("replay %d: verified %d, mismatched %d", i, c[MetricReplayVerified], c[MetricReplayMismatch])
		}
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) || entryCount(t, dir) != 1 {
		t.Fatalf("verified replays changed the cache: %d entries, entry unchanged %v (%v)",
			entryCount(t, dir), bytes.Equal(got, entry), err)
	}
	if hits, misses := r.Stats(); hits != 0 || misses != 4 {
		t.Errorf("hits=%d misses=%d, want every run simulated", hits, misses)
	}

	// Flip the lowest bit of the first simulated metric in the entry.
	key := ""
	for _, name := range stored.MetricNames() {
		spoiled := maps.Clone(stored.Metrics)
		spoiled[name] = math.Float64frombits(math.Float64bits(spoiled[name]) ^ 1)
		if scenario.SimulatedDiff(stored.Metrics, spoiled) == name {
			key = name
			stored.Metrics = spoiled
			break
		}
	}
	if err := os.WriteFile(path, appendEntry(nil, stored), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(sp)
	if err == nil || !strings.Contains(err.Error(), stored.Hash) || !strings.Contains(err.Error(), strconv.Quote(key)) {
		t.Fatalf("replay against a spoiled %q: err = %v, want one naming %s and the key", key, err, stored.Hash)
	}
	if c := reg.Snapshot().Counters; c[MetricReplayMismatch] != 1 || c[MetricReplayVerified] != 2 {
		t.Errorf("verified %d, mismatched %d after the spoiled replay, want 2 and 1",
			c[MetricReplayVerified], c[MetricReplayMismatch])
	}
}

// entryCount counts the .res files in dir.
func entryCount(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

func TestRunAllProgress(t *testing.T) {
	specs, err := cheapSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var snaps []Progress
	r := &Runner{CacheDir: dir, Workers: 2,
		OnProgress: func(p Progress) { snaps = append(snaps, p) }}
	if _, err := r.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2*len(specs) {
		t.Fatalf("%d progress snapshots, want %d", len(snaps), 2*len(specs))
	}
	final := snaps[len(snaps)-1]
	if final.Total != len(specs) || final.Done != len(specs) || final.InFlight != 0 {
		t.Fatalf("final snapshot %+v", final)
	}
	if final.Cached != 0 || final.Events <= 0 || final.EventsPerSec <= 0 {
		t.Fatalf("cold sweep counted %d cached, %v events", final.Cached, final.Events)
	}
	// A warm sweep reports every job cached and no new events.
	var warm Progress
	r2 := &Runner{CacheDir: dir, OnProgress: func(p Progress) { warm = p }}
	if _, err := r2.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if warm.Cached != len(specs) || warm.Events != 0 {
		t.Fatalf("warm sweep snapshot %+v", warm)
	}
}

func TestExportTelemetry(t *testing.T) {
	r := &Runner{}
	res, err := r.Run(telemetrySpec())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "series")
	if err := ExportTelemetry(dir, res); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "series.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "queue_bytes") {
		t.Error("series.json has no queue series")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var csvs, traces int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".csv"):
			csvs++
		case e.Name() == "trace.jsonl":
			traces++
		}
	}
	if csvs == 0 {
		t.Error("no per-series CSV exported")
	}
	if traces != 1 {
		t.Error("trace.jsonl not exported despite trace_cap")
	}
	// Sanity-check one CSV: header plus at least one row.
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), "time_us,value") {
			t.Errorf("%s: missing CSV header", e.Name())
		}
		break
	}

	// Results without telemetry refuse to export.
	plain := telemetrySpec()
	plain.Telemetry = nil
	pres, err := r.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportTelemetry(t.TempDir(), pres); err == nil {
		t.Error("exported a result with no telemetry")
	}
}

// TestFigureRecomputesMetrics: every figure metric of a packet chain run is
// recomputable from what the run exports. Each registry chain entry, and
// micro and incast under every scheme, runs with the default telemetry
// block; from figure.json alone — the rows and the series and reduction it
// names for each metric — the test recomputes each metric and must get the
// bits of Result.Metrics. The counters (pause_frames, drops, lhcs_triggers,
// all_done_us, ...) are read off the fabric after the run, not folded from
// rows, and are not in figure.json.
func TestFigureRecomputesMetrics(t *testing.T) {
	var specs []scenario.Spec
	for _, name := range scenario.Names() {
		sp, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := sp.Normalized(); n.Topo.Kind != "chain" || n.BackendName() != scenario.BackendPacket {
			continue
		}
		specs = append(specs, sp)
		if sp.Name == "micro" || sp.Name == "incast" {
			for _, scheme := range exp.AllSchemes() {
				if scheme != sp.Scheme {
					sp.Scheme = scheme
					specs = append(specs, sp)
				}
			}
		}
	}
	folded := map[string]bool{}
	for _, sp := range specs {
		sp.Telemetry = sp.DefaultTelemetry()
		res, err := scenario.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := ExportTelemetry(dir, res); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, "figure.json"))
		if err != nil {
			t.Fatal(err)
		}
		var fig telemetry.Output
		if err := json.Unmarshal(blob, &fig); err != nil {
			t.Fatal(err)
		}
		label := sp.Name + "/" + sp.Scheme
		if fig.Samples != len(fig.TimesUs) || len(fig.Reductions) == 0 {
			t.Fatalf("%s: figure.json keeps %d of %d rows and %d reductions", label, len(fig.TimesUs), fig.Samples, len(fig.Reductions))
		}
		for _, r := range fig.Reductions {
			got, want := recompute(t, &fig, r), res.Metrics[r.Metric]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: %s recomputes to %v from figure.json, the run reports %v", label, r.Metric, got, want)
			}
			folded[r.Metric] = true
		}
		if label == "micro/FNCC" && res.Metrics["queue_peak_bytes"] != 103_224 {
			t.Errorf("micro: queue_peak_bytes %v, want 103224", res.Metrics["queue_peak_bytes"])
		}
	}
	for _, m := range []string{"queue_peak_bytes", "mean_util", "first_slowdown_us", "notify_latency_us", "jain_all_active", "jain_min"} {
		if !folded[m] {
			t.Errorf("no run's figure.json reduces to %s", m)
		}
	}
}

// recompute applies a figure.json reduction to the figure's rows, written
// from the reduction's documented meaning rather than from its fold.
func recompute(t *testing.T, fig *telemetry.Output, r telemetry.Reduction) float64 {
	cols := make([][]float64, len(r.Series))
	for i, name := range r.Series {
		s := fig.SeriesByName(name)
		if s == nil {
			t.Fatalf("%s reads series %q, which figure.json lacks", r.Metric, name)
		}
		cols[i] = s.Values
	}
	at := func(k int, cols [][]float64) []float64 {
		row := make([]float64, len(cols))
		for i, c := range cols {
			row[i] = c[k]
		}
		return row
	}
	var sum float64
	var n int
	v := map[string]float64{telemetry.ReduceFirstBelow: -1, telemetry.ReduceDelayBelow: -1, telemetry.ReduceMinJain: 1}[r.Reduce]
	for k, us := range fig.TimesUs {
		now := sim.Time(math.Round(us * float64(sim.Microsecond)))
		if now < r.From || r.To > 0 && now >= r.To {
			continue
		}
		switch x := cols[0][k]; r.Reduce {
		case telemetry.ReduceMax:
			v = math.Max(v, x)
		case telemetry.ReduceMean:
			sum, n = sum+x, n+1
		case telemetry.ReduceMeanJain:
			sum, n = sum+metrics.JainIndex(at(k, cols)), n+1
		case telemetry.ReduceFirstBelow, telemetry.ReduceDelayBelow:
			if v < 0 && x < r.Below {
				if r.Reduce == telemetry.ReduceDelayBelow {
					now -= r.From
				}
				v = now.Micros()
			}
		case telemetry.ReduceMinJain:
			last := len(cols) - 1
			if cols[last][k] == float64(last) {
				v = math.Min(v, metrics.JainIndex(at(k, cols[:last])))
			}
		default:
			t.Fatalf("%s: unknown reduction %q", r.Metric, r.Reduce)
		}
	}
	if n > 0 {
		v = sum / float64(n)
	}
	return v
}
