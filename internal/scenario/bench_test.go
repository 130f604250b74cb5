package scenario

import (
	"testing"
	"time"
)

// benchFCTSpec is one small Fig 14-style point, identical under both
// backends so the packet/fluid ns/op ratio is the backend speedup on the
// same experiment (cmd/benchguard derives it into BENCH_3.json and CI
// fails if it drops below 50x).
func benchFCTSpec(backend string) Spec {
	return Spec{Kind: KindFCT, Scheme: "FNCC", Backend: backend,
		Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: "websearch"},
		Load: 0.5, Seed: 2, DurationUs: 500}
}

// benchRun runs sp once per iteration on the loop's own arena, as a sweep
// worker runs its points: allocs/op and B/op are a run's on storage an
// earlier run grew, whatever the collector did in between.
func benchRun(b *testing.B, sp Spec) {
	n, err := sp.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	var a Arena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Run(WithArena(&a)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFCTPointPacket is the packet-engine cost of one small FCT point.
func BenchmarkFCTPointPacket(b *testing.B) { benchRun(b, benchFCTSpec(BackendPacket)) }

// BenchmarkFCTPointFluid is the fluid-backend cost of the same point.
func BenchmarkFCTPointFluid(b *testing.B) { benchRun(b, benchFCTSpec(BackendFluid)) }

// benchFCTSpecK8 is the paper-scale k=8 WebSearch point (128 hosts, 2k+
// flows) used by the parallel-speedup gate: heavy enough that per-window
// work dominates barrier cost.
func benchFCTSpecK8(workers int) Spec {
	return Spec{Kind: KindFCT, Scheme: "FNCC",
		Workload: WorkloadSpec{CDF: "websearch"}, Load: 0.5, Seed: 2,
		DurationUs: 300, Workers: workers}
}

// BenchmarkFCTPointPacketK8 is the serial cost of the k=8 point.
func BenchmarkFCTPointPacketK8(b *testing.B) { benchRun(b, benchFCTSpecK8(0)) }

// benchSharded is benchRun for a sharded point, through the three Fabric
// calls runFlows makes so that the executor's own busy/wait split can be
// read: parallel_efficiency is the time the workers spent inside windows over
// width x the wall time of Run, the share of the cores it holds that the
// executor turns into simulation. It stays out of Result.Metrics: it is the
// host's number, not the run's.
func benchSharded(b *testing.B, sp Spec) {
	b.ReportAllocs()
	sp = sp.Normalized()
	var busy, held float64
	var a Arena
	for i := 0; i < b.N; i++ {
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
	b.ReportMetric(busy/held, "parallel_efficiency")
}

// BenchmarkFCTPointPacketParallel is the same point on the LP-sharded
// executor with 4 workers (bit-identical result). benchguard derives
// packet_parallel_speedup = K8/Parallel into the perf snapshot; nothing gates
// it, since no CI runner has the four cores it asks for.
func BenchmarkFCTPointPacketParallel(b *testing.B) { benchSharded(b, benchFCTSpecK8(4)) }

// benchFCTSpecK4 is the repository benchmark's fct-websearch point: k=4, 2 ms
// of arrivals, ~4 M events in ~4k windows of 5 shards. The 500 us point above
// is a tenth of it, too short for a stable two-core ratio.
func benchFCTSpecK4(workers int) Spec {
	return Spec{Kind: KindFCT, Scheme: "FNCC", Topo: TopoSpec{K: 4},
		Workload: WorkloadSpec{CDF: "websearch"}, Load: 0.5, Seed: 1,
		DurationUs: 2000, Workers: workers}
}

// BenchmarkFCTPointPacketK4 is the serial cost of that point, and
// BenchmarkFCTPointPacketParallelW2 the same point on 2 workers:
// packet_parallel_speedup_w2 = K4/ParallelW2, which CI floors on runners
// that have two cores to run them on.
func BenchmarkFCTPointPacketK4(b *testing.B) { benchRun(b, benchFCTSpecK4(0)) }

func BenchmarkFCTPointPacketParallelW2(b *testing.B) { benchSharded(b, benchFCTSpecK4(2)) }

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
