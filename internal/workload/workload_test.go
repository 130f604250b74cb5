package workload

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNewCDFValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []CDFPoint
	}{
		{"too few", []CDFPoint{{1, 1}}},
		{"zero size", []CDFPoint{{0, 0}, {10, 1}}},
		{"cum > 1", []CDFPoint{{1, 0}, {10, 1.5}}},
		{"sizes not increasing", []CDFPoint{{10, 0}, {10, 1}}},
		{"cum decreasing", []CDFPoint{{1, 0.5}, {10, 0.2}, {20, 1}}},
		{"not ending at 1", []CDFPoint{{1, 0}, {10, 0.9}}},
	}
	for _, c := range cases {
		if _, err := NewCDF(c.name, c.pts); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewCDF("ok", []CDFPoint{{1, 0.1}, {10, 1}}); err != nil {
		t.Fatalf("valid CDF rejected: %v", err)
	}
}

func TestMustCDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCDF("bad", []CDFPoint{{1, 1}})
}

func TestSampleRange(t *testing.T) {
	for _, c := range []*CDF{WebSearch(), FBHadoop()} {
		rng := sim.NewRNG(1)
		for i := 0; i < 50000; i++ {
			s := c.Sample(rng)
			if s < c.MinBytes() || s > c.MaxBytes() {
				t.Fatalf("%s: sample %d out of [%d, %d]", c.Name(), s, c.MinBytes(), c.MaxBytes())
			}
		}
	}
}

func TestSampleMeanMatchesAnalytic(t *testing.T) {
	for _, c := range []*CDF{WebSearch(), FBHadoop(), Uniform(100, 10000)} {
		rng := sim.NewRNG(7)
		const n = 300000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(c.Sample(rng))
		}
		got := sum / n
		want := c.MeanBytes()
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("%s: empirical mean %.0f vs analytic %.0f", c.Name(), got, want)
		}
	}
}

func TestWebSearchShape(t *testing.T) {
	c := WebSearch()
	// Most flows are < 200KB but the mean is MB-scale (heavy tail).
	if q := c.Quantile(0.6); q > 200_000 {
		t.Fatalf("60th percentile %d should be <= 200KB", q)
	}
	if m := c.MeanBytes(); m < 1_000_000 || m > 3_000_000 {
		t.Fatalf("WebSearch mean %.0f outside [1MB, 3MB]", m)
	}
}

func TestFBHadoopShape(t *testing.T) {
	c := FBHadoop()
	// Half the flows fit in a single MTU.
	if q := c.Quantile(0.5); q > 1518 {
		t.Fatalf("median %d should fit one MTU", q)
	}
	if m := c.MeanBytes(); m < 5_000 || m > 40_000 {
		t.Fatalf("Hadoop mean %.0f outside [5KB, 40KB]", m)
	}
}

func TestQuantileMonotone(t *testing.T) {
	c := WebSearch()
	prev := int64(0)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := c.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at %v: %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WebSearch().Quantile(-0.1)
}

func TestFixedDistribution(t *testing.T) {
	c := Fixed(5000)
	rng := sim.NewRNG(3)
	for i := 0; i < 1000; i++ {
		if s := c.Sample(rng); s < 5000 || s > 5001 {
			t.Fatalf("Fixed(5000) sampled %d", s)
		}
	}
}

func TestByName(t *testing.T) {
	if c, ok := ByName("websearch"); !ok || c.Name() != "WebSearch" {
		t.Fatal("websearch lookup failed")
	}
	if c, ok := ByName("hadoop"); !ok || c.Name() != "FB_Hadoop" {
		t.Fatal("hadoop lookup failed")
	}
	// One name per distribution: the CDFs' own names and the old aliases
	// are not spellings of them.
	for _, name := range []string{"nope", "WebSearch", "fbhadoop", "FB_Hadoop"} {
		if _, ok := ByName(name); ok {
			t.Errorf("%q resolved", name)
		}
	}
	if got := fmt.Sprint(Names()); got != "[websearch hadoop]" {
		t.Errorf("Names() = %s", got)
	}
}

// Property: samples are always within [min, max] and positive for any seed.
func TestQuickSampleBounds(t *testing.T) {
	c := FBHadoop()
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		for i := 0; i < 100; i++ {
			s := c.Sample(rng)
			if s < 1 || s < c.MinBytes() || s > c.MaxBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateValidation(t *testing.T) {
	base := GenConfig{Hosts: 4, AccessBps: 100e9, Load: 0.5, CDF: FBHadoop(), Horizon: sim.Millisecond}
	bad := []GenConfig{}
	for _, mut := range []func(*GenConfig){
		func(c *GenConfig) { c.Hosts = 1 },
		func(c *GenConfig) { c.AccessBps = 0 },
		func(c *GenConfig) { c.Load = 0 },
		func(c *GenConfig) { c.Load = 1.5 },
		func(c *GenConfig) { c.CDF = nil },
		func(c *GenConfig) { c.Horizon = 0 },
	} {
		c := base
		mut(&c)
		bad = append(bad, c)
	}
	for i, c := range bad {
		if _, err := Generate(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGenerateLoadAndOrdering(t *testing.T) {
	cfg := GenConfig{
		Hosts: 16, AccessBps: 100e9, Load: 0.5,
		CDF: FBHadoop(), Horizon: 20 * sim.Millisecond, Seed: 11,
	}
	flows, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) < 1000 {
		t.Fatalf("only %d flows generated", len(flows))
	}
	for i := 1; i < len(flows); i++ {
		if flows[i].Start < flows[i-1].Start {
			t.Fatal("flows not sorted by start")
		}
		if flows[i].ID != flows[i-1].ID+1 {
			t.Fatal("flow IDs not sequential")
		}
	}
	for _, f := range flows {
		if f.SrcHost == f.DstHost {
			t.Fatal("self-flow generated")
		}
		if f.SrcHost < 0 || f.SrcHost >= 16 || f.DstHost < 0 || f.DstHost >= 16 {
			t.Fatal("host out of range")
		}
	}
	load := OfferedLoad(flows, cfg.Hosts, cfg.AccessBps, cfg.Horizon)
	if math.Abs(load-0.5) > 0.1 {
		t.Fatalf("offered load %.3f, want ~0.5", load)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{
		Hosts: 8, AccessBps: 100e9, Load: 0.3,
		CDF: WebSearch(), Horizon: 5 * sim.Millisecond, Seed: 42,
	}
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c, _ := Generate(cfg)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical workloads")
		}
	}
}

func TestDestinationsRoughlyUniform(t *testing.T) {
	cfg := GenConfig{
		Hosts: 8, AccessBps: 100e9, Load: 0.8,
		CDF: FBHadoop(), Horizon: 20 * sim.Millisecond, Seed: 5,
	}
	flows, _ := Generate(cfg)
	counts := make([]int, 8)
	for _, f := range flows {
		counts[f.DstHost]++
	}
	mean := float64(len(flows)) / 8
	for h, n := range counts {
		if math.Abs(float64(n)-mean) > 0.25*mean {
			t.Fatalf("host %d received %d flows, mean %.0f", h, n, mean)
		}
	}
}

func TestUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Uniform(10, 10)
}
