package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDistQuantiles(t *testing.T) {
	d := NewDist()
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if d.N() != 100 || d.Min() != 1 || d.Max() != 100 {
		t.Fatal("basic stats wrong")
	}
	if m := d.Median(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("median = %v", m)
	}
	if p := d.P99(); math.Abs(p-99.01) > 1e-9 {
		t.Fatalf("p99 = %v", p)
	}
	if mean := d.Mean(); math.Abs(mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestDistEdgeCases(t *testing.T) {
	d := NewDist()
	if d.Quantile(0.5) != 0 || d.Mean() != 0 || d.Max() != 0 {
		t.Fatal("empty dist should return zeros")
	}
	d.Observe(7)
	if d.Quantile(0) != 7 || d.Quantile(1) != 7 || d.Median() != 7 {
		t.Fatal("single-element quantiles wrong")
	}
}

func TestDistRejectsNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDist().Observe(math.NaN())
}

func TestDistQuantileRangePanics(t *testing.T) {
	d := NewDist()
	d.Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Quantile(1.5)
}

func TestDistMerge(t *testing.T) {
	a, b := NewDist(), NewDist()
	a.Observe(1)
	b.Observe(3)
	a.Merge(b)
	if a.N() != 2 || a.Mean() != 2 {
		t.Fatal("merge wrong")
	}
}

// Property: Quantile agrees with a sort-based reference at the sample points.
func TestQuickQuantileAgainstReference(t *testing.T) {
	f := func(raw []float64) bool {
		d := NewDist()
		var clean []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Observe(v)
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		// Quantile(k/(n-1)) must hit clean[k] exactly.
		n := len(clean)
		if n == 1 {
			return d.Quantile(0.7) == clean[0]
		}
		for k := 0; k < n; k++ {
			q := float64(k) / float64(n-1)
			got := d.Quantile(q)
			if math.Abs(got-clean[k]) > 1e-9*math.Max(1, math.Abs(clean[k])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if v := JainIndex([]float64{10, 10, 10, 10}); math.Abs(v-1) > 1e-12 {
		t.Fatalf("equal shares: %v", v)
	}
	if v := JainIndex([]float64{40, 0, 0, 0}); math.Abs(v-0.25) > 1e-12 {
		t.Fatalf("single hog: %v", v)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs")
	}
}

// Property: Jain index is scale-invariant and within (0, 1].
func TestQuickJainIndex(t *testing.T) {
	f := func(xs []uint16, scale uint8) bool {
		if len(xs) == 0 {
			return true
		}
		a := make([]float64, len(xs))
		b := make([]float64, len(xs))
		nonzero := false
		k := float64(scale%9) + 1
		for i, x := range xs {
			a[i] = float64(x)
			b[i] = float64(x) * k
			if x != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return true
		}
		ja, jb := JainIndex(a), JainIndex(b)
		return ja > 0 && ja <= 1+1e-12 && math.Abs(ja-jb) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFCTRecord(t *testing.T) {
	r := FCTRecord{
		SizeBytes: 1000,
		Start:     10 * sim.Microsecond,
		Finish:    30 * sim.Microsecond,
		Ideal:     10 * sim.Microsecond,
	}
	if r.FCT() != 20*sim.Microsecond {
		t.Fatalf("FCT = %v", r.FCT())
	}
	if r.Slowdown() != 2 {
		t.Fatalf("Slowdown = %v", r.Slowdown())
	}
}

func TestSlowdownClamp(t *testing.T) {
	r := FCTRecord{Start: 0, Finish: 5, Ideal: 10}
	if r.Slowdown() != 1 {
		t.Fatalf("sub-ideal slowdown should clamp to 1, got %v", r.Slowdown())
	}
	r.Ideal = 0
	if r.Slowdown() != 0 {
		t.Fatal("zero ideal should yield 0")
	}
}

func TestCollectorMergeSort(t *testing.T) {
	a, b := NewFCTCollector(), NewFCTCollector()
	a.Record(FCTRecord{FlowID: 2, Start: 20})
	b.Record(FCTRecord{FlowID: 1, Start: 10})
	a.Merge(b)
	a.SortByStart()
	if a.N() != 2 || a.Records[0].FlowID != 1 {
		t.Fatalf("merge/sort: %+v", a.Records)
	}
}

func TestCounter(t *testing.T) {
	c := Counter{Name: "pause"}
	c.Inc()
	c.Add(4)
	if c.N != 5 {
		t.Fatalf("counter = %d", c.N)
	}
}
