package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/workload"
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

func TestFormatBucketsPoolsSeedsPerScheme(t *testing.T) {
	// HPCC first: the scheme columns follow first appearance, not a
	// canonical order.
	var results []*scenario.Result
	want := map[string]*metrics.FCTCollector{}
	for _, scheme := range []string{"HPCC", "FNCC"} {
		want[scheme] = metrics.NewFCTCollector()
		for _, seed := range []int64{1, 2} {
			r := fluidFCT(t, scheme, seed, 0.5)
			results = append(results, r)
			want[scheme].Merge(r.FCT)
		}
	}
	got, err := formatBuckets(results)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := exp.FormatFCTTables("hadoop", want, []string{"HPCC", "FNCC"})
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(got, "\n")
	if header != "t (fluid) fat-tree k=4 (16 hosts), hadoop @ 50% load, 4 run(s)" {
		t.Errorf("group header %q", header)
	}
	if wantBody := tables + "\n" + exp.FormatHeadlines("hadoop", want) + "\n"; body != wantBody {
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
	got, err := formatBuckets(results)
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

func TestFormatBucketsRefusesResultsWithoutRecords(t *testing.T) {
	cached := fluidFCT(t, "FNCC", 1, 0.5)
	cached.FCT, cached.Cached = nil, true // what the harness cache returns
	micro, err := scenario.Run(scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 350})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*scenario.Result{"cached": cached, "chain kind": micro} {
		_, err := formatBuckets([]*scenario.Result{fluidFCT(t, "HPCC", 1, 0.5), r})
		if err == nil || !strings.Contains(err.Error(), "-cache") {
			t.Errorf("%s result: error %v does not name -cache", name, err)
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

func workloadOutput(t *testing.T, args ...string) string {
	t.Helper()
	var b bytes.Buffer
	if err := cmdWorkload(args, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWorkloadSummary(t *testing.T) {
	out := workloadOutput(t, "-wl", "hadoop")
	cdf := workload.FBHadoop()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	want := fmt.Sprintf("workload %s: mean %.0fB, min %dB, max %dB",
		cdf.Name(), cdf.MeanBytes(), cdf.MinBytes(), cdf.MaxBytes())
	if lines[0] != want || lines[1] != "quantile  size_bytes" || len(lines) != 10 {
		t.Fatalf("summary:\n%s", out)
	}
	if last := fmt.Sprintf("%8.2f  %10d", 1.0, cdf.MaxBytes()); lines[9] != last {
		t.Errorf("last quantile row %q, want %q", lines[9], last)
	}
	var b bytes.Buffer
	if err := cmdWorkload([]string{"-wl", "uniform"}, &b); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWorkloadExportRoundTrips(t *testing.T) {
	out := workloadOutput(t, "-wl", "websearch", "-export")
	cdf, err := workload.ParseCDF("roundtrip", strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	ws := workload.WebSearch()
	if cdf.MeanBytes() != ws.MeanBytes() || cdf.MinBytes() != ws.MinBytes() || cdf.MaxBytes() != ws.MaxBytes() {
		t.Errorf("re-parsed export: mean %v min %d max %d", cdf.MeanBytes(), cdf.MinBytes(), cdf.MaxBytes())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if cdf.Quantile(q) != ws.Quantile(q) {
			t.Errorf("quantile %v: %d != %d", q, cdf.Quantile(q), ws.Quantile(q))
		}
	}
}

func TestWorkloadTrace(t *testing.T) {
	out := workloadOutput(t, "-wl", "websearch", "-trace", "-ms", "0.2", "-hosts", "16")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	var flows int
	var load float64
	if _, err := fmt.Sscanf(lines[0], "# WebSearch trace: %d flows, offered load %f", &flows, &load); err != nil {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	if lines[1] != "id,src,dst,bytes,start_us" || flows == 0 || len(lines) != flows+2 {
		t.Fatalf("%d flows announced, %d lines:\n%.300s", flows, len(lines), out)
	}
	if load <= 0 || load > 3 {
		t.Errorf("offered load %v implausible", load)
	}
	var id, src, dst, size int
	var start float64
	if _, err := fmt.Sscanf(lines[2], "%d,%d,%d,%d,%f", &id, &src, &dst, &size, &start); err != nil || id != 1 || src == dst {
		t.Errorf("first flow row %q: %v", lines[2], err)
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
