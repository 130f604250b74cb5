package harness

import (
	"testing"

	"repro/internal/scenario"
)

// BenchmarkFluidFCTSweep is a whole sweep grid — 3 schemes x 3 loads x
// 2 seeds, 18 FCT points — on the fluid backend, uncached and
// single-worker: the workload the backend exists for. One op is the full
// grid; this is the BENCH_3.json trajectory point for sweep throughput.
// BenchmarkMicroObsOff is exp.BenchmarkMicroSteadyState's workload (FNCC
// micro, 100 Gbit/s, 400 us) driven through the obs-capable Runner with
// the observability layer unconfigured — no registry, no tracer.
// cmd/benchguard pins the ratio of this bench to the bare
// runner at <= 1.01: the whole obs layer must cost nothing when off.
func BenchmarkMicroObsOff(b *testing.B) {
	sp := scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 400}
	r := &Runner{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(sp)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics["queue_peak_bytes"] <= 0 {
			b.Fatal("no queue buildup: benchmark not exercising the hot path")
		}
	}
}

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
