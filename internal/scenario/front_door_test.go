package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/exp"
)

// frontDoorSweeps are the two Fig 14/15 bucket-table pins: k=4 at load 0.5
// over seeds 1 and 2, small enough to run in about a second each.
var frontDoorSweeps = []struct {
	name    string
	cdf     string
	durUs   int64
	schemes []string
}{
	{"buckets-hadoop", "hadoop", 1000, []string{"DCQCN", "HPCC", "FNCC"}},
	{"buckets-websearch", "websearch", 500, []string{"FNCC", "HPCC"}},
}

var frontDoorSeeds = []int64{1, 2}

// bitsLine pins one number by its bit pattern, with the value for readers.
func bitsLine(b *strings.Builder, label string, v float64) {
	fmt.Fprintf(b, "%s %016x (%v)\n", label, math.Float64bits(v), v)
}

// mustRun executes a spec or fails the test.
func mustRun(t *testing.T, sp Spec) *Result {
	t.Helper()
	r, err := Run(sp)
	if err != nil {
		t.Fatalf("%s/%s: %v", sp.Kind, sp.Scheme, err)
	}
	return r
}

// frontDoorNotify is the Fig 2/12 notification matrix: four schemes at three
// hop positions, microseconds from congestion onset to the victim's first
// rate decrease.
func frontDoorNotify(t *testing.T) string {
	var b strings.Builder
	for _, scheme := range exp.AllSchemes() {
		for _, hop := range []string{"first", "middle", "last"} {
			r := mustRun(t, Spec{Kind: KindNotify, Scheme: scheme, Hop: hop})
			bitsLine(&b, scheme+" "+hop, r.Metrics["notify_latency_us"])
		}
	}
	return b.String()
}

// frontDoorBuckets is the full text of the per-size-bucket slowdown tables
// and headline reductions, each scheme's collectors pooled across seeds.
func frontDoorBuckets(t *testing.T, cdf string, durUs int64, schemes []string) string {
	var results []*Result
	for _, scheme := range schemes {
		for _, seed := range frontDoorSeeds {
			results = append(results, mustRun(t, Spec{Kind: KindFCT, Scheme: scheme,
				Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: cdf},
				Load: 0.5, Seed: seed, DurationUs: durUs}))
		}
	}
	merged, order, err := PoolFCT(results)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := exp.FormatFCTTables(cdf, merged, order)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(tables+"\n"+exp.FormatHeadlines(cdf, merged), "\n") + "\n"
}

// frontDoorMicro is the Fig 9 summary row per scheme at 100 G: the five
// numbers the micro table prints.
func frontDoorMicro(t *testing.T) string {
	var b strings.Builder
	for _, scheme := range exp.AllSchemes() {
		r := mustRun(t, Spec{Kind: KindMicro, Scheme: scheme})
		for _, k := range []string{"first_slowdown_us", "queue_peak_bytes", "mean_util", "pause_frames", "drops"} {
			bitsLine(&b, scheme+" "+k, r.Metrics[k])
		}
	}
	return b.String()
}

// TestGoldenFrontDoor is the licence for deleting the second front door:
// testdata/golden_front_door.txt was written from exp.RunNotify,
// exp.RunFCTSweep and exp.RunMicroAll, the entry points behind fnccsim and
// fctsweep, on the tree that still had them; the scenario path that replaced
// them must reproduce every bit and byte of it. Regenerate with `go test -run
// TestGoldenFrontDoor -update` only in a change that says which simulated
// number it means to move.
func TestGoldenFrontDoor(t *testing.T) {
	got := map[string]string{"notify": frontDoorNotify(t), "micro": frontDoorMicro(t)}
	order := []string{"notify"}
	for _, s := range frontDoorSweeps {
		got[s.name] = frontDoorBuckets(t, s.cdf, s.durUs, s.schemes)
		order = append(order, s.name)
	}
	order = append(order, "micro")
	checkGoldenSections(t, "testdata/golden_front_door.txt", order, got)
}

func TestFCTSmall(t *testing.T) {
	// Small fat-tree FCT smoke: k=4, short horizon, two schemes; asserts
	// completion, record plausibility and the small-flow p95 ordering
	// FNCC <= DCQCN (DCQCN's sluggishness shows even at this scale).
	if testing.Short() {
		t.Skip("large integration run")
	}
	var results []*Result
	for _, scheme := range []string{exp.SchemeFNCC, exp.SchemeDCQCN} {
		for _, seed := range []int64{1, 2} {
			r := mustRun(t, Spec{Kind: KindFCT, Scheme: scheme, Topo: TopoSpec{K: 4},
				Workload: WorkloadSpec{CDF: "hadoop"}, Load: 0.4, Seed: seed, DurationUs: 500})
			generated, completed := r.Metrics["generated"], r.Metrics["completed"]
			if generated == 0 {
				t.Fatalf("%s/seed%d: no flows generated", scheme, seed)
			}
			if completed < math.Floor(generated*95/100) {
				t.Fatalf("%s/seed%d: only %v/%v completed", scheme, seed, completed, generated)
			}
			if int(completed) != r.FCT.N() {
				t.Fatalf("%s/seed%d: completed %v but %d flow records", scheme, seed, completed, r.FCT.N())
			}
			if l := r.Metrics["offered_load"]; l < 0.15 || l > 0.8 {
				t.Fatalf("offered load %.2f implausible", l)
			}
			results = append(results, r)
		}
	}
	merged, order, err := PoolFCT(results)
	if err != nil {
		t.Fatal(err)
	}
	fncc := merged[exp.SchemeFNCC].SlowdownDist(0, 100_000)
	dcqcn := merged[exp.SchemeDCQCN].SlowdownDist(0, 100_000)
	if fncc.N() == 0 || dcqcn.N() == 0 {
		t.Fatal("empty slowdown distributions")
	}
	if fncc.P95() > dcqcn.P95()*1.1 {
		t.Errorf("small-flow p95: FNCC %.2f vs DCQCN %.2f", fncc.P95(), dcqcn.P95())
	}

	tables, err := exp.FormatFCTTables("hadoop", merged, order)
	if err != nil || !strings.Contains(tables, "p95") {
		t.Fatalf("tables err=%v:\n%s", err, tables)
	}
	_ = exp.FormatHeadlines("hadoop", merged)
}

func TestFCTValidation(t *testing.T) {
	if _, err := Run(Spec{Kind: KindFCT, Scheme: exp.SchemeFNCC, Workload: WorkloadSpec{CDF: "nope"}}); err == nil {
		t.Fatal("accepted unknown workload")
	}
	if _, err := Run(Spec{Kind: KindFCT, Scheme: "nope", Workload: WorkloadSpec{CDF: "hadoop"}}); err == nil {
		t.Fatal("accepted unknown scheme")
	}
}

func TestNotifyOrdering(t *testing.T) {
	// E10: FNCC's notification latency at the first hop must undercut
	// HPCC's, and FNCC's own latency should grow from last toward first
	// hop relative advantage (Fig 12's geometry).
	lat := map[string]map[string]float64{}
	for _, scheme := range []string{exp.SchemeFNCC, exp.SchemeHPCC} {
		lat[scheme] = map[string]float64{}
		for _, hop := range []string{"first", "middle", "last"} {
			l := mustRun(t, Spec{Kind: KindNotify, Scheme: scheme, Hop: hop}).Metrics["notify_latency_us"]
			if l < 0 {
				t.Fatalf("%s@%s never reacted", scheme, hop)
			}
			lat[scheme][hop] = l
		}
	}
	if lat[exp.SchemeFNCC]["first"] >= lat[exp.SchemeHPCC]["first"] {
		t.Errorf("first-hop latency: FNCC %vus !< HPCC %vus",
			lat[exp.SchemeFNCC]["first"], lat[exp.SchemeHPCC]["first"])
	}
	// The title claim: FNCC's notification is sub-RTT at every hop
	// (base RTT of the M=3 dumbbell at 100G is ~13.5us).
	const baseRTTUs = 13.5
	for hop, l := range lat[exp.SchemeFNCC] {
		if l >= baseRTTUs {
			t.Errorf("FNCC@%s notification %vus is not sub-RTT (%vus)", hop, l, baseRTTUs)
		}
	}
}
