package scenario

import (
	"testing"
	"time"

	"repro/internal/benchpair"
)

// benchFCTSpec is one small Fig 14-style point, identical under both
// backends so the packet/fluid pair is the backend speedup on the same
// experiment.
func benchFCTSpec(backend string) Spec {
	return Spec{Kind: KindFCT, Scheme: "FNCC", Backend: backend,
		Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: "websearch"},
		Load: 0.5, Seed: 2, DurationUs: 500}
}

// runOn returns a side that runs sp on an arena of its own, as a sweep
// worker runs its points: from its second call on, a run's allocations are
// those on storage an earlier run grew, whatever the collector did in
// between.
func runOn(b *testing.B, sp Spec) func() {
	n, err := sp.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	var a Arena
	return func() {
		if _, err := n.Run(WithArena(&a)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRun runs sp once per iteration on the loop's own arena.
func benchRun(b *testing.B, sp Spec) {
	run := runOn(b, sp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkFCTPointPacket is the packet-engine cost of one small FCT point.
func BenchmarkFCTPointPacket(b *testing.B) { benchRun(b, benchFCTSpec(BackendPacket)) }

// BenchmarkFCTPointFluid is the fluid-backend cost of the same point.
func BenchmarkFCTPointFluid(b *testing.B) { benchRun(b, benchFCTSpec(BackendFluid)) }

// BenchmarkFluidFCTSpeedup pairs the packet point against the fluid one. CI
// floors its ratio at 150: the fluid backend's reason to exist.
func BenchmarkFluidFCTSpeedup(b *testing.B) {
	benchpair.Ratio(b, runOn(b, benchFCTSpec(BackendPacket)), runOn(b, benchFCTSpec(BackendFluid)))
}

// fabricRun returns a side that runs sp through the three Fabric calls the
// one runner, runFlows, makes, on an arena of its own, and its parallel
// efficiency so far: the time the workers spent inside windows over width x
// the wall time of Run. It is the host's number, not the run's, so it stays
// out of Result.Metrics.
func fabricRun(b *testing.B, sp Spec) (side func(), efficiency func() float64) {
	sp = sp.Normalized()
	var busy, held float64
	var a Arena
	side = func() {
		fab, err := buildFabric(sp, &a)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := offerFlowSet(sp, fab, &a); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		st := fab.Run(sp.Duration()*11, nil).Perf.Shard
		busy += float64(st.BusyNs)
		held += float64(st.Width) * float64(time.Since(t0))
	}
	return side, func() float64 { return busy / held }
}

// benchParallel pairs sp serial against sp on the LP-sharded executor with
// workers workers (bit-identical results) and reports the sharded side's
// parallel_efficiency.
func benchParallel(b *testing.B, sp Spec, workers int) {
	serial, _ := fabricRun(b, sp)
	sp.Workers = workers
	sharded, efficiency := fabricRun(b, sp)
	benchpair.Ratio(b, serial, sharded)
	b.ReportMetric(efficiency(), "parallel_efficiency")
}

// BenchmarkPacketParallelSpeedup is the paper-scale k=8 WebSearch point (128
// hosts, 2k+ flows), heavy enough that per-window work dominates barrier
// cost, serial over 4 workers. CI records its ratio and gates nothing: no
// CI runner has the four cores it asks for.
func BenchmarkPacketParallelSpeedup(b *testing.B) {
	benchParallel(b, Spec{Kind: KindFCT, Scheme: "FNCC",
		Workload: WorkloadSpec{CDF: "websearch"}, Load: 0.5, Seed: 2,
		DurationUs: 300}, 4)
}

// BenchmarkPacketParallelSpeedupW2 is the repository benchmark's
// fct-websearch point — k=4, 2 ms of arrivals, ~4 M events in ~4k windows of
// 5 shards; the 500 us point above is a tenth of it, too short for a stable
// two-core ratio — serial over 2 workers. CI floors its ratio on runners
// that have two cores to run them on.
func BenchmarkPacketParallelSpeedupW2(b *testing.B) {
	benchParallel(b, Spec{Kind: KindFCT, Scheme: "FNCC", Topo: TopoSpec{K: 4},
		Workload: WorkloadSpec{CDF: "websearch"}, Load: 0.5, Seed: 1,
		DurationUs: 2000}, 2)
}

// hashSink keeps BenchmarkSpecHash's calls from being optimized away.
var hashSink string

// BenchmarkSpecHash is Spec.Hash of one point of the repository benchmark's
// sweep grid, a sparse fluid FCT spec: normalize, encode, hash. CI gates its
// allocs/op at 1, the returned string, so the hash stays free of reflection
// and of heap buffers.
func BenchmarkSpecHash(b *testing.B) {
	sp := Spec{Kind: KindFCT, Backend: BackendFluid, Scheme: "HPCC",
		Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: "websearch"},
		Load: 0.3, Seed: 5, DurationUs: 10000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashSink = sp.Hash()
	}
}
