package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// bucketsResult is a hand-built fct result: one scheme's flows, each given
// as a size and the slowdown it completed with.
func bucketsResult(cdf, scheme string, load float64, flows ...[2]float64) *Result {
	col := metrics.NewFCTCollector()
	for _, f := range flows {
		col.Record(metrics.FCTRecord{SizeBytes: int64(f[0]), Finish: sim.Time(f[1] * 1000), Ideal: 1000})
	}
	sp := Spec{Kind: KindFCT, Scheme: scheme, Topo: TopoSpec{K: 4},
		Workload: WorkloadSpec{CDF: cdf}, Load: load}
	return &Result{Spec: sp.Normalized(), FCT: col}
}

// panelRows returns a panel's rows below its column header, split into
// fields.
func panelRows(t *testing.T, out, stat, cdf string) [][]string {
	t.Helper()
	_, rest, ok := strings.Cut(out, fmt.Sprintf("== %s FCT slowdown (%s) ==\nsize", stat, cdf))
	if !ok {
		t.Fatalf("no %s panel in:\n%s", stat, out)
	}
	_, rest, _ = strings.Cut(rest, "\n")
	panel, _, _ := strings.Cut(rest, "\n\n")
	var rows [][]string
	for _, line := range strings.Split(panel, "\n") {
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

// TestBuckets pins every edge and label of the Figs 14/15 x-axes, which are
// derived from the CDFs' breakpoints: a flow one byte above the previous
// edge and a flow at the edge land in the same (previous, edge] row.
func TestBuckets(t *testing.T) {
	want := map[string][]string{
		"websearch": {"10KB", "20KB", "30KB", "50KB", "80KB", "200KB", "1MB", "2MB", "5MB", "10MB", "30MB"},
		"hadoop": {"75B", "250B", "350B", "1KB", "2KB", "6KB", "10KB", "15KB", "23KB", "24KB", "25KB",
			"100KB", "1MB"},
	}
	edges := map[string][]int64{
		"websearch": {10_000, 20_000, 30_000, 50_000, 80_000, 200_000, 1_000_000, 2_000_000, 5_000_000,
			10_000_000, 30_000_000},
		"hadoop": {75, 250, 350, 1_000, 2_000, 6_000, 10_000, 15_000, 23_000, 24_000, 25_000, 100_000, 1_000_000},
	}
	for wl, labels := range want {
		var flows [][2]float64
		lo := int64(0)
		for _, hi := range edges[wl] {
			flows = append(flows, [2]float64{float64(lo + 1), 1}, [2]float64{float64(hi), 1})
			lo = hi
		}
		out, err := FormatBuckets([]*Result{bucketsResult(wl, "FNCC", 0.5, flows...)})
		if err != nil {
			t.Fatal(err)
		}
		rows := panelRows(t, out, "avg", wl)
		if len(rows) != len(labels) {
			t.Fatalf("%s: %d rows, want %d:\n%s", wl, len(rows), len(labels), out)
		}
		lo = 0
		for i, row := range rows {
			if row[0] != labels[i] || row[2] != "2" {
				t.Errorf("%s row %d = %v, want label %s holding 2 flows in (%d, %d]",
					wl, i, row, labels[i], lo, edges[wl][i])
			}
			lo = edges[wl][i]
		}
	}
	for _, wl := range []string{"nope", "WebSearch", "fbhadoop", "FB_Hadoop"} {
		r := bucketsResult("hadoop", "FNCC", 0.5, [2]float64{75, 1})
		r.Spec.Workload.CDF = wl
		if _, err := FormatBuckets([]*Result{r}); err == nil {
			t.Errorf("buckets for workload %q", wl)
		}
	}
}

// TestBucketTable: a row counts the flows of its bucket and takes each
// panel's statistic over their slowdowns.
func TestBucketTable(t *testing.T) {
	out, err := FormatBuckets([]*Result{bucketsResult("websearch", "FNCC", 0.5,
		[2]float64{5_000, 1.5}, [2]float64{8_000, 2.5}, [2]float64{50_000, 4.0})})
	if err != nil {
		t.Fatal(err)
	}
	avg, p99 := panelRows(t, out, "avg", "websearch"), panelRows(t, out, "p99", "websearch")
	if got := strings.Join(avg[0], " "); got != "10KB 2.00 2" {
		t.Errorf("avg 10KB row %q", got)
	}
	if got := strings.Join(p99[3], " "); got != "50KB 4.00 1" {
		t.Errorf("p99 50KB row %q", got)
	}
	if got := strings.Join(avg[1], " "); got != "20KB 0.00 0" {
		t.Errorf("empty 20KB row %q", got)
	}
}

// TestSlowdownReduction: the §5.5 headlines are FNCC's relative reduction
// of a baseline's statistic, and 0 where the baseline has no flows.
func TestSlowdownReduction(t *testing.T) {
	var fncc, hpcc [][2]float64
	for i := 0; i < 10; i++ {
		fncc = append(fncc, [2]float64{50_000, 3.0})
		hpcc = append(hpcc, [2]float64{50_000, 4.0})
	}
	fncc = append(fncc, [2]float64{2_000_000, 3.0}) // no HPCC flow above 1MB
	out, err := FormatBuckets([]*Result{bucketsResult("websearch", "FNCC", 0.5, fncc...),
		bucketsResult("websearch", "HPCC", 0.5, hpcc...)})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"websearch: flows<100KB p95 slowdown reduction vs HPCC: 25.0%\n",
		"websearch: flows>1MB median slowdown reduction vs HPCC: 0.0%\n",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("no headline %q in:\n%s", line, out)
		}
	}
	if strings.Contains(out, "vs DCQCN") {
		t.Errorf("headline against a scheme that did not run:\n%s", out)
	}
}
