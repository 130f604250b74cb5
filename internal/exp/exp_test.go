package exp

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSchemeRegistry(t *testing.T) {
	all := []string{SchemeFNCC, SchemeFNCCNoLHCS, SchemeHPCC, SchemeDCQCN, SchemeRoCC,
		SchemeTimely, SchemeSwift, SchemeExpressPass}
	for _, name := range all {
		s, err := NewScheme(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("scheme name %q != %q", s.Name, name)
		}
	}
	_, err := NewScheme("TCP")
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	// The error lists the registered set: every name NewScheme accepts.
	msg := err.Error()
	have := strings.Fields(msg[strings.LastIndex(msg, "[")+1 : strings.LastIndex(msg, "]")])
	if !slices.Equal(have, all) {
		t.Errorf("unknown-scheme error lists %v, want %v", have, all)
	}
}

func TestFairShareBytesSchedule(t *testing.T) {
	// The staggered join/leave schedule is a tent: flow i and flow n-1-i
	// mirror each other, and summing every flow's fair-share integral
	// recovers exactly the busy time — (2n-1) full windows of B.
	n := 4
	s := sim.Millisecond
	rate := int64(100e9)
	var total int64
	for i := 0; i < n; i++ {
		a := FairShareBytes(n, i, s, rate)
		b := FairShareBytes(n, n-1-i, s, rate)
		if a != b {
			t.Fatalf("mirror flows %d/%d budgets differ: %d vs %d", i, n-1-i, a, b)
		}
		total += a
	}
	perWindow := int64(float64(rate) / 8 * s.Seconds())
	want := perWindow * int64(2*n-1)
	if total < want-want/1000 || total > want+want/1000 {
		t.Fatalf("total budget %d, want ~%d (2n-1 windows)", total, want)
	}
	// Edge flows see the emptiest windows, so they get the biggest budget.
	if FairShareBytes(n, 0, s, rate) <= FairShareBytes(n, 1, s, rate) {
		t.Fatal("edge flow should out-earn middle flow")
	}
}

// TestBuckets pins every edge and label of the Figs 14/15 x-axes, which are
// derived from the CDFs' breakpoints.
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
		bs, err := BucketsFor(wl)
		if err != nil {
			t.Fatal(err)
		}
		if len(bs) != len(labels) {
			t.Fatalf("%s: %d buckets, want %d: %+v", wl, len(bs), len(labels), bs)
		}
		lo := int64(0)
		for i, b := range bs {
			if b.Label != labels[i] || b.LoByte != lo || b.HiByte != edges[wl][i] {
				t.Errorf("%s bucket %d = %+v, want {%s (%d, %d]}", wl, i, b, labels[i], lo, edges[wl][i])
			}
			lo = edges[wl][i]
		}
	}
	for _, wl := range []string{"nope", "WebSearch", "fbhadoop", "FB_Hadoop"} {
		if _, err := BucketsFor(wl); err == nil {
			t.Errorf("buckets for workload %q", wl)
		}
	}
}

func TestSlowdownReduction(t *testing.T) {
	a, b := metrics.NewFCTCollector(), metrics.NewFCTCollector()
	rec := func(c *metrics.FCTCollector, slow float64) {
		c.Record(metrics.FCTRecord{SizeBytes: 50_000, Finish: sim.Time(slow * 1000), Ideal: 1000})
	}
	for i := 0; i < 10; i++ {
		rec(a, 2.0) // scheme
		rec(b, 4.0) // baseline
	}
	if got := SlowdownReduction("p95", a, b, 0, 100_000); got != 0.5 {
		t.Fatalf("reduction = %v", got)
	}
	if got := SlowdownReduction("avg", a, b, 1<<40, 1<<41); got != 0 {
		t.Fatalf("empty bucket reduction = %v", got)
	}
}
