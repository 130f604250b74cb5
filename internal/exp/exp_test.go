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

func TestBuckets(t *testing.T) {
	ws := WebSearchBuckets()
	if len(ws) != 11 || ws[0].Label != "10KB" || ws[10].HiByte != 30_000_000 {
		t.Fatalf("websearch buckets: %+v", ws)
	}
	hd := HadoopBuckets()
	if len(hd) != 13 || hd[0].LoByte != 0 || hd[0].HiByte != 75 {
		t.Fatalf("hadoop buckets: %+v", hd)
	}
	// Contiguity.
	for i := 1; i < len(ws); i++ {
		if ws[i].LoByte != ws[i-1].HiByte {
			t.Fatal("websearch buckets not contiguous")
		}
	}
	if _, err := BucketsFor("nope"); err == nil {
		t.Fatal("unknown workload buckets")
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
