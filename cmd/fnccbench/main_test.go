package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// fluidFCT runs one small Poisson point on the fluid engine (milliseconds).
func fluidFCT(t *testing.T, scheme string, seed int64, load float64) *scenario.Result {
	t.Helper()
	r, err := scenario.Run(scenario.Spec{Name: "t", Kind: scenario.KindFCT,
		Backend: scenario.BackendFluid, Scheme: scheme, Topo: scenario.TopoSpec{K: 4},
		Workload: scenario.WorkloadSpec{CDF: "hadoop"}, Load: load, Seed: seed, DurationUs: 300})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFormatBucketsPoolsSeedsPerScheme: the CLI's tables pool each
// scheme's seeds, exactly as one result per scheme holding the merged
// records prints.
func TestFormatBucketsPoolsSeedsPerScheme(t *testing.T) {
	// HPCC first: the scheme columns follow first appearance, not a
	// canonical order.
	var results, merged []*scenario.Result
	for _, scheme := range []string{"HPCC", "FNCC"} {
		one := *fluidFCT(t, scheme, 1, 0.5)
		one.FCT = metrics.NewFCTCollector()
		for _, seed := range []int64{1, 2} {
			r := fluidFCT(t, scheme, seed, 0.5)
			results = append(results, r)
			one.FCT.Merge(r.FCT)
		}
		merged = append(merged, &one)
	}
	got, err := scenario.FormatBuckets(results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.FormatBuckets(merged)
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(got, "\n")
	if header != "t (fluid) fat-tree k=4 (16 hosts), hadoop @ 50% load, 4 run(s)" {
		t.Errorf("group header %q", header)
	}
	if _, wantBody, _ := strings.Cut(want, "\n"); body != wantBody {
		t.Errorf("pooled tables differ from a direct Merge:\ngot\n%s\nwant\n%s", body, wantBody)
	}
	if !strings.Contains(body, fmt.Sprintf("%-8s%12s%12s%8s\n", "size", "HPCC", "FNCC", "n")) {
		t.Errorf("scheme columns not in order of first appearance:\n%s", body)
	}
}

func TestFormatBucketsOneTableSetPerGroup(t *testing.T) {
	var results []*scenario.Result
	for _, load := range []float64{0.3, 0.6} {
		for _, scheme := range []string{"FNCC", "HPCC"} {
			results = append(results, fluidFCT(t, scheme, 1, load))
		}
	}
	k2 := fluidFCT(t, "FNCC", 1, 0.3)
	k2.Spec.Topo.K = 2 // a different fabric is a different group
	results = append(results, k2)
	got, err := scenario.FormatBuckets(results)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(got, "== p99 FCT slowdown (hadoop) =="); n != 3 {
		t.Errorf("%d table sets for 3 (load, k) groups:\n%s", n, got)
	}
	for _, h := range []string{"k=4 (16 hosts), hadoop @ 30% load, 2 run(s)",
		"k=4 (16 hosts), hadoop @ 60% load, 2 run(s)", "k=2 (2 hosts), hadoop @ 30% load, 1 run(s)"} {
		if !strings.Contains(got, h) {
			t.Errorf("no group header %q in:\n%s", h, got)
		}
	}
}

// TestFormatBucketsRefusesResultsWithoutRecords: a cached result has no
// flow records and a chain kind has no size buckets; the error says which.
func TestFormatBucketsRefusesResultsWithoutRecords(t *testing.T) {
	cached := fluidFCT(t, "FNCC", 1, 0.5)
	cached.FCT, cached.Cached = nil, true // what the harness cache returns
	micro, err := scenario.Run(scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 350})
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range map[*scenario.Result]string{cached: "no flow records", micro: `kind "micro"`} {
		_, err := scenario.FormatBuckets([]*scenario.Result{fluidFCT(t, "HPCC", 1, 0.5), r})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s result: error %v does not say %s", r.Spec.Kind, err, want)
		}
	}
}

// bucketsSpec writes the fluidFCT spec to a file a sweep can take.
func bucketsSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.json")
	spec := `{"name":"t","kind":"fct","backend":"fluid","scheme":"FNCC","topo":{"k":4},` +
		`"workload":{"cdf":"hadoop"},"load":0.5,"seed":1,"duration_us":300}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSweepRefusesFormatBeforeRunning: an unknown format, and buckets over
// a kind without size buckets, fail before any point runs — so before any
// cache entry is written — and the error names the format or the kind.
func TestSweepRefusesFormatBeforeRunning(t *testing.T) {
	for _, tc := range []struct{ scenario, format, want string }{
		{"micro", "nope", `unknown format "nope"`},
		{"micro", "buckets", `kind "micro"`},
		{"permutation-fluid", "buckets", `kind "permutation"`},
	} {
		cache := t.TempDir()
		err := cmdSweep([]string{tc.scenario, "-format", tc.format, "-cache", cache, "-log", "off"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s -format %s: error %v, want %s", tc.scenario, tc.format, err, tc.want)
		}
		if entries, _ := filepath.Glob(filepath.Join(cache, "*.res")); len(entries) > 0 {
			t.Errorf("%s -format %s ran before refusing: cache holds %v", tc.scenario, tc.format, entries)
		}
	}
	// A warm cache serves results without flow records: that names -cache.
	spec, cache := bucketsSpec(t), t.TempDir()
	if err := cmdSweep([]string{spec, "-cache", cache, "-log", "off"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	err := cmdSweep([]string{spec, "-format", "buckets", "-cache", cache, "-log", "off"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-cache") {
		t.Errorf("buckets from a warm cache: error %v does not name -cache", err)
	}
}

// TestSweepBucketsHeadsEachLoad: grid loads that round to one whole percent
// still head separate groups.
func TestSweepBucketsHeadsEachLoad(t *testing.T) {
	var out bytes.Buffer
	if err := cmdSweep([]string{bucketsSpec(t), "-loads", "0.125,0.12,0.5,0.07,1", "-format", "buckets", "-log", "off"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, pct := range []string{"12.5", "12", "50", "7", "100"} {
		if h := "hadoop @ " + pct + "% load, 1 run(s)\n"; strings.Count(out.String(), h) != 1 {
			t.Errorf("header %q not printed once in:\n%s", h, out.String())
		}
	}
}

func TestParseGrid(t *testing.T) {
	g, err := parseGrid("FNCC, HPCC", "packet,fluid", "1,2", "0.3,0.5", "4,8")
	if err != nil {
		t.Fatal(err)
	}
	if g.Points() != 32 || g.Schemes[1] != "HPCC" || g.Seeds[1] != 2 || g.Loads[0] != 0.3 || g.Sizes[1] != 8 {
		t.Errorf("grid %+v", g)
	}
	for _, tc := range []struct{ seeds, loads, sizes, want string }{
		{"1,x", "", "", `bad seed "x"`},
		{"", "half", "", `bad load "half"`},
		{"", "", "4.5", `bad size "4.5"`},
	} {
		_, err := parseGrid("", "", tc.seeds, tc.loads, tc.sizes)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseGrid(%q,%q,%q) error %v, want %s", tc.seeds, tc.loads, tc.sizes, err, tc.want)
		}
	}
}

// TestSweepJSONIsOneRun: a sweep with no grid beyond one scheme prints the
// export row of a fresh run of that one spec, byte for byte.
func TestSweepJSONIsOneRun(t *testing.T) {
	var got bytes.Buffer
	if err := cmdSweep([]string{"micro", "-schemes", "HPCC", "-format", "json", "-log", "off"}, &got); err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.Lookup("micro")
	if err != nil {
		t.Fatal(err)
	}
	sp.Scheme = "HPCC"
	res, err := scenario.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := harness.WriteJSON(&want, harness.Rows([]*scenario.Result{res})); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("sweep -format json:\n%s\nfresh run:\n%s", got.String(), want.String())
	}
}

// TestSweepTelemetryPerPoint: -telemetry writes every point's series under
// <dir>/<hash>/, whatever the point count, on either engine.
func TestSweepTelemetryPerPoint(t *testing.T) {
	for _, backend := range []string{scenario.BackendPacket, scenario.BackendFluid} {
		dir := t.TempDir()
		var out bytes.Buffer
		err := cmdSweep([]string{"incast", "-schemes", "FNCC,HPCC", "-backends", backend,
			"-telemetry", dir, "-format", "json", "-log", "off"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		var rows []harness.Row
		if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 || len(entries) != 2 {
			t.Fatalf("%s: %d rows, %d telemetry dirs, want 2 each", backend, len(rows), len(entries))
		}
		for _, row := range rows {
			blob, err := os.ReadFile(filepath.Join(dir, row.Hash, "series.json"))
			if err != nil {
				t.Fatalf("%s %s: %v", backend, row.Scheme, err)
			}
			var tel telemetry.Output
			if err := json.Unmarshal(blob, &tel); err != nil || tel.Samples == 0 || len(tel.Series) == 0 {
				t.Errorf("%s %s: series.json holds %d samples, %d series (%v)",
					backend, row.Scheme, tel.Samples, len(tel.Series), err)
			}
		}
	}
}

// TestSweepTelemetryReplaysCache: `sweep -telemetry` over a point already in
// -cache simulates it again, checks it against the entry and writes nothing
// to the cache, and its export holds the series.
func TestSweepTelemetryReplaysCache(t *testing.T) {
	cache, tel := t.TempDir(), t.TempDir()
	snap := filepath.Join(t.TempDir(), "metrics.json")
	sweep := func(extra ...string) map[string]int64 {
		t.Helper()
		args := append([]string{"micro", "-cache", cache, "-log", "off", "-metrics", snap}, extra...)
		if err := cmdSweep(args, io.Discard); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		var s struct{ Counters map[string]int64 }
		if err := json.Unmarshal(blob, &s); err != nil {
			t.Fatal(err)
		}
		return s.Counters
	}
	entries := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(cache, "*.res"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	if c := sweep(); c[harness.MetricCacheMisses] != 1 {
		t.Fatalf("plain sweep: counters %v, want one simulation", c)
	}
	before := entries()
	c := sweep("-telemetry", tel)
	if c[harness.MetricCacheMisses] != 1 || c[harness.MetricCacheHits] != 0 || c[harness.MetricReplayVerified] != 1 {
		t.Errorf("telemetry sweep: counters %v, want one simulation and one verified replay", c)
	}
	if after := entries(); len(before) != 1 || !slices.Equal(before, after) {
		t.Errorf("cache entries %v before the telemetry sweep, %v after", before, after)
	}
	if _, err := os.Stat(filepath.Join(tel, strings.TrimSuffix(filepath.Base(before[0]), ".res"), "series.json")); err != nil {
		t.Error(err)
	}
}

func showOutput(t *testing.T, args ...string) string {
	t.Helper()
	var b bytes.Buffer
	if err := cmdShow(args, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

const packetProbes = `probes:
  queue    yes
  switch   yes
  host     yes
  cc       yes
  rate     no (backend packet)
  link     no (backend packet)
  trace    yes
`

// TestShowSpec: show prints the canonical spec, its hash and which probes
// it supports, and nothing more for a kind without a flow-size distribution.
func TestShowSpec(t *testing.T) {
	for name, want := range map[string]string{
		"micro": `{"kind":"micro","scheme":"FNCC","topo":{"kind":"chain","switches":3,"senders":2,"rate_gbps":100,"delay_ns":1500},"workload":{},"duration_us":1200}
hash: sc-aed404ce9f8898de
` + packetProbes,
		"incast": `{"kind":"incast","scheme":"FNCC","topo":{"kind":"chain","switches":3,"rate_gbps":100,"delay_ns":1500},"workload":{"flow_bytes":2097152,"fanout":16},"duration_us":100000}
hash: sc-494032cbfb559e74
` + packetProbes,
	} {
		if got := showOutput(t, name); got != want {
			t.Errorf("show %s:\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestShowCDFSummary: an fct spec's view ends with its flow-size
// distribution: the analytic mean, the range and a quantile table.
func TestShowCDFSummary(t *testing.T) {
	out := showOutput(t, "fct-hadoop")
	want := `{"kind":"fct","scheme":"FNCC","topo":{"kind":"fattree","k":8,"rate_gbps":100,"delay_ns":1500},"workload":{"cdf":"hadoop"},"load":0.5,"seed":1,"duration_us":2000}
hash: sc-b37af18a25cb9ea8
` + packetProbes + `workload FB_Hadoop: mean 10579B, min 75B, max 1000000B
quantile  size_bytes
    0.10          75
    0.25         300
    0.50        1000
    0.75        8000
    0.90       15000
    0.95       23000
    0.99      100000
    1.00     1000000
`
	if out != want {
		t.Errorf("show fct-hadoop:\n%s\nwant\n%s", out, want)
	}
}

// TestShowFlows: -flows prints the flow set the run offers, one row per
// generated flow, IDs from 1 in offer order.
func TestShowFlows(t *testing.T) {
	out := showOutput(t, "fct-websearch-fluid", "-flows")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if lines[0] != "id,src,dst,bytes,start_us" {
		t.Fatalf("header %q", lines[0])
	}
	sp, err := scenario.Lookup("fct-websearch-fluid")
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(lines) - 1; rows == 0 || float64(rows) != res.Metrics["generated"] {
		t.Fatalf("%d flow rows, the run generated %v", rows, res.Metrics["generated"])
	}
	var prev float64
	for i, line := range lines[1:] {
		var id, src, dst, size int
		var start float64
		if _, err := fmt.Sscanf(line, "%d,%d,%d,%d,%f", &id, &src, &dst, &size, &start); err != nil ||
			id != i+1 || src == dst || size <= 0 || start < prev {
			t.Fatalf("flow row %d %q (%v)", i+1, line, err)
		}
		prev = start
	}
}

// TestPointLineShowsNetworkMetrics: the watch stream once looked up keys no
// kind emits and so printed only engine_events.
func TestPointLineShowsNetworkMetrics(t *testing.T) {
	line := pointLine(&harness.Row{Name: "micro", Kind: "micro", Scheme: "FNCC", Metrics: map[string]float64{
		"engine_events": 1e6, "pool_hit_rate": 0.99, "queue_peak_bytes": 103200,
		"mean_util": 0.92, "drops": 0, "first_slowdown_us": 309, "pause_frames": 0,
	}})
	want := "FNCC/micro micro  drops=0  first_slowdown_us=309  mean_util=0.92  pause_frames=0"
	if line != want {
		t.Errorf("pointLine = %q, want %q", line, want)
	}
}

// TestWatchRefusesNegativeFrom: a negative -from once dropped the query and
// replayed the stream from point 0; it is refused before any request.
func TestWatchRefusesNegativeFrom(t *testing.T) {
	requests := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
	}))
	defer ts.Close()
	err := cmdWatch([]string{"-addr", ts.URL, "-from", "-3", "s-1"})
	if err == nil || !strings.Contains(err.Error(), "-from -3") {
		t.Errorf("watch -from -3: error %v, want one naming -from -3", err)
	}
	if requests != 0 {
		t.Errorf("watch -from -3 sent %d request(s)", requests)
	}
}
