package exp

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSchemeRegistry(t *testing.T) {
	for _, name := range append(AllSchemes(), SchemeFNCCNoLHCS) {
		s, err := NewScheme(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("scheme name %q != %q", s.Name, name)
		}
	}
	if _, err := NewScheme("TCP"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSortSchemes(t *testing.T) {
	names := []string{"RoCC", "HPCC", "FNCC", "DCQCN"}
	SortSchemes(names)
	want := []string{"FNCC", "HPCC", "DCQCN", "RoCC"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order %v", names)
		}
	}
}

func TestRunMicroShapes(t *testing.T) {
	// The central integration test: run all four schemes on the Fig 9
	// micro-benchmark at 100G and assert the paper's qualitative ordering.
	byName := map[string]*MicroResult{}
	for _, scheme := range AllSchemes() {
		r := runMicro(t, scheme, 100e9, 800*sim.Microsecond)
		byName[r.Scheme] = r
		if r.Queue.Len() == 0 || r.Util.Len() == 0 {
			t.Fatalf("%s: empty series", r.Scheme)
		}
		if r.Drops != 0 {
			t.Fatalf("%s: %d drops with PFC on", r.Scheme, r.Drops)
		}
	}
	fncc, hpcc, dcqcn := byName[SchemeFNCC], byName[SchemeHPCC], byName[SchemeDCQCN]

	// Fig 9b: FNCC reacts first.
	if fncc.FirstSlowdown < 0 || hpcc.FirstSlowdown < 0 {
		t.Fatalf("no slowdown: fncc=%v hpcc=%v", fncc.FirstSlowdown, hpcc.FirstSlowdown)
	}
	if fncc.FirstSlowdown >= hpcc.FirstSlowdown {
		t.Errorf("FNCC slowdown %v not before HPCC %v", fncc.FirstSlowdown, hpcc.FirstSlowdown)
	}
	// Fig 9a: queue peaks ordered FNCC < HPCC < DCQCN.
	if !(fncc.QueuePeak < hpcc.QueuePeak) {
		t.Errorf("queue peaks: FNCC %.0f !< HPCC %.0f", fncc.QueuePeak, hpcc.QueuePeak)
	}
	if !(hpcc.QueuePeak < dcqcn.QueuePeak) {
		t.Errorf("queue peaks: HPCC %.0f !< DCQCN %.0f", hpcc.QueuePeak, dcqcn.QueuePeak)
	}
	// Fig 9g: FNCC keeps utilization high after the join.
	if fncc.MeanUtil < 0.85 {
		t.Errorf("FNCC mean utilization %.2f < 0.85", fncc.MeanUtil)
	}
}

// runMicro runs the micro-benchmark for one scheme over a trimmed window.
func runMicro(t *testing.T, scheme string, rateBps int64, dur sim.Time) *MicroResult {
	t.Helper()
	cfg := DefaultMicroConfig(scheme, rateBps)
	cfg.Duration = dur
	r, err := RunMicro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunMicroHigherRates(t *testing.T) {
	// Fig 9c-f robustness: the FNCC < HPCC queue ordering must hold at
	// 400G too (shorter windows keep this cheap).
	for _, rate := range []int64{400e9} {
		fncc := runMicro(t, SchemeFNCC, rate, 600*sim.Microsecond)
		hpcc := runMicro(t, SchemeHPCC, rate, 600*sim.Microsecond)
		if !(fncc.QueuePeak < hpcc.QueuePeak) {
			t.Errorf("@%dG: FNCC peak %.0f !< HPCC %.0f", rate/1e9, fncc.QueuePeak, hpcc.QueuePeak)
		}
	}
}

func TestRunMicroValidation(t *testing.T) {
	cfg := DefaultMicroConfig(SchemeFNCC, 100e9)
	cfg.Senders = 1
	if _, err := RunMicro(cfg); err == nil {
		t.Fatal("accepted 1 sender")
	}
	cfg = DefaultMicroConfig("nope", 100e9)
	if _, err := RunMicro(cfg); err == nil {
		t.Fatal("accepted unknown scheme")
	}
}

func TestRunHopPositionsAndLHCSGain(t *testing.T) {
	// Fig 13a-c: FNCC's queue reduction vs HPCC is largest at the first
	// hop, smaller mid-chain; at the last hop LHCS recovers the gain.
	run := func(scheme string, pos HopPosition) *HopResult {
		r, err := RunHop(DefaultHopConfig(scheme, pos))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, pos := range []HopPosition{HopFirst, HopMiddle, HopLast} {
		h := run(SchemeHPCC, pos)
		f := run(SchemeFNCC, pos)
		if f.QueuePeak >= h.QueuePeak {
			t.Errorf("%s: FNCC peak %.0f !< HPCC %.0f", pos, f.QueuePeak, h.QueuePeak)
		}
	}
	// Last hop: LHCS beats no-LHCS (Fig 13c's 38.5% vs 8.4%).
	lhcsOn := run(SchemeFNCC, HopLast)
	lhcsOff := run(SchemeFNCCNoLHCS, HopLast)
	if lhcsOn.LHCSTriggers == 0 {
		t.Error("LHCS never fired at the last hop")
	}
	if lhcsOff.LHCSTriggers != 0 {
		t.Error("LHCS fired while disabled")
	}
	if lhcsOn.QueuePeak >= lhcsOff.QueuePeak {
		t.Errorf("LHCS on peak %.0f !< off %.0f", lhcsOn.QueuePeak, lhcsOff.QueuePeak)
	}
}

func TestRunHopValidation(t *testing.T) {
	cfg := DefaultHopConfig(SchemeFNCC, HopPosition("nowhere"))
	if _, err := RunHop(cfg); err == nil {
		t.Fatal("accepted bad position")
	}
}

func TestRunFairness(t *testing.T) {
	cfg := DefaultFairnessConfig(SchemeFNCC)
	cfg.Stagger = 400 * sim.Microsecond // CI-scale
	r, err := RunFairness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Goodput) != 4 {
		t.Fatalf("goodput series: %d", len(r.Goodput))
	}
	// Fig 13e: good fairness on short time scales.
	if r.JainAllActive < 0.85 {
		t.Fatalf("Jain index %.3f < 0.85 during full overlap", r.JainAllActive)
	}
}

func TestRunFairnessValidation(t *testing.T) {
	cfg := DefaultFairnessConfig(SchemeFNCC)
	cfg.Senders = 1
	if _, err := RunFairness(cfg); err == nil {
		t.Fatal("accepted 1 sender")
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
		a := fairShareBytes(n, i, s, rate)
		b := fairShareBytes(n, n-1-i, s, rate)
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
	if fairShareBytes(n, 0, s, rate) <= fairShareBytes(n, 1, s, rate) {
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
