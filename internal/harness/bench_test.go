package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchpair"
	"repro/internal/scenario"
)

// BenchmarkObsOverhead pairs the micro run (exp.BenchmarkMicroSteadyState's
// workload: FNCC micro, 100 Gbit/s, 400 us) driven through the obs-capable
// Runner with the observability layer unconfigured — no registry, no tracer
// — against the same spec through scenario.Run, both on the lone-run arena
// pool. CI bounds its ratio at <= 1.01: the whole obs layer must cost
// nothing when off.
func BenchmarkObsOverhead(b *testing.B) {
	sp := scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 400}
	r := &Runner{}
	side := func(run func(scenario.Spec) (*scenario.Result, error)) func() {
		return func() {
			res, err := run(sp)
			if err != nil {
				b.Fatal(err)
			}
			if res.Metrics["queue_peak_bytes"] <= 0 {
				b.Fatal("no queue buildup: benchmark not exercising the hot path")
			}
		}
	}
	b.ReportAllocs()
	benchpair.Ratio(b, side(r.Run), side(scenario.Run))
}

// BenchmarkFluidFCTSweep is a whole sweep grid — 3 schemes x 3 loads x
// 2 seeds, 18 FCT points — on the fluid backend, uncached and
// single-worker: the workload the backend exists for. One op is the full
// grid; this is the BENCH_3.json trajectory point for sweep throughput.
func BenchmarkFluidFCTSweep(b *testing.B) {
	sweep := Sweep{
		Base: scenario.Spec{Kind: scenario.KindFCT, Scheme: "FNCC",
			Backend:    scenario.BackendFluid,
			Topo:       scenario.TopoSpec{K: 4},
			Workload:   scenario.WorkloadSpec{CDF: "websearch"},
			DurationUs: 500},
		Grid: Grid{
			Schemes: []string{"FNCC", "HPCC", "DCQCN"},
			Loads:   []float64{0.3, 0.5, 0.7},
			Seeds:   []int64{1, 2},
		},
	}
	specs, err := sweep.Expand()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &Runner{Workers: 1}
		if _, err := r.RunAll(specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit is one Runner.Run of a cached fluid FCT point: validate,
// hash, read the entry and decode it. CI gates its allocs/op, so the hit path
// cannot drift back to reflection decoding.
func BenchmarkCacheHit(b *testing.B) {
	sp := scenario.Spec{Kind: scenario.KindFCT, Scheme: "FNCC",
		Backend:    scenario.BackendFluid,
		Topo:       scenario.TopoSpec{K: 4},
		Workload:   scenario.WorkloadSpec{CDF: "websearch"},
		DurationUs: 500}
	r := &Runner{CacheDir: b.TempDir()}
	if _, err := r.Run(sp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(sp)
		if err != nil || !res.Cached {
			b.Fatalf("cached = %v, err = %v", res != nil && res.Cached, err)
		}
	}
}

// BenchmarkRunnerStartScaling pairs a new Runner serving one hit — what a
// figure re-render or a one-point CLI call costs — from a cache of 8,192
// entries against one from a cache of 64. CI bounds its ratio at <= 1.5:
// starting a Runner must not cost time in the number of entries, as it did
// when the temp-file reaper listed the whole cache dir.
func BenchmarkRunnerStartScaling(b *testing.B) {
	sp := scenario.Spec{Kind: scenario.KindFCT, Scheme: "FNCC",
		Backend:    scenario.BackendFluid,
		Topo:       scenario.TopoSpec{K: 4},
		Workload:   scenario.WorkloadSpec{CDF: "websearch"},
		DurationUs: 500}
	b.ReportAllocs()
	benchpair.Ratio(b, freshRunnerHit(b, sp, 8192), freshRunnerHit(b, sp, 64))
}

// freshRunnerHit fills a cache dir with entries entries, sp's among them,
// and returns a side that serves sp from it through a new Runner.
func freshRunnerHit(b *testing.B, sp scenario.Spec, entries int) func() {
	dir := b.TempDir()
	r := &Runner{CacheDir: dir}
	if _, err := r.Run(sp); err != nil {
		b.Fatal(err)
	}
	entry, err := os.ReadFile(r.cachePath(sp.Hash()))
	if err != nil {
		b.Fatal(err)
	}
	// The other entries are copies under other names, each with its lock
	// file, as a sweep leaves them.
	for i := 1; i < entries; i++ {
		name := filepath.Join(dir, fmt.Sprintf("sc-%016x", i))
		if err := os.WriteFile(name+".res", entry, 0o644); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(name+".lock", nil, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return func() {
		res, err := (&Runner{CacheDir: dir}).Run(sp)
		if err != nil || !res.Cached {
			b.Fatalf("cached = %v, err = %v", res != nil && res.Cached, err)
		}
	}
}
