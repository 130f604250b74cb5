package exp

import (
	"runtime"
	"testing"

	"repro/internal/benchpair"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// benchMicro runs the complete §5.1 micro-benchmark on the chain fabric —
// build, two line-rate elephants (the second joining at 300 us), 400 us of
// simulated congestion, teardown — under the watch the micro scenario kind
// runs (queue, link utilization and the first flow's pacing rate every
// microsecond, folded into its three figure metrics), and nothing above the
// fabric. It runs on st, the caller's storage for all its runs, and returns
// the bottleneck queue peak and the run.
func benchMicro(b testing.TB, st *netsim.Storage, tel *telemetry.Config) (peak int64, res FlowsResult) {
	const join, line = 300 * sim.Microsecond, 100e9
	pc, err := NewPacketChain(st, MustScheme(SchemeFNCC), netsim.DefaultConfig(), topo.DefaultChainOpts(2))
	if err != nil {
		b.Fatal(err)
	}
	offer(b, pc, 1<<40, join)
	pc.Watch = telemetry.Watch{Interval: sim.Microsecond, Port: pc.Chain.BottleneckPort(), Flows: pc.Flows[:1],
		Reductions: []telemetry.Reduction{
			{Metric: "queue_peak_bytes", Reduce: telemetry.ReduceMax, N: 1},
			{Metric: "mean_util", Reduce: telemetry.ReduceMean, Col: 1, N: 1, From: join},
			{Metric: "first_slowdown_us", Reduce: telemetry.ReduceFirstBelow, Col: 2, N: 1, From: join, Below: 0.85 * line}}}
	pc.Hold = true
	res = pc.Run(400*sim.Microsecond, tel)
	r := pc.Watch.Reductions
	if r[1].Value <= 0 || r[2].Value < 0 {
		b.Fatalf("the joining flow left no mark: mean util %v, first slowdown %v us", r[1].Value, r[2].Value)
	}
	peak = int64(r[0].Value)
	return peak, res
}

// BenchmarkMicroSteadyState runs the complete micro-benchmark once per
// iteration. Unlike the engine/forwarding benches this includes all per-run
// setup, so allocs/op is the whole run's allocation budget: ~125k before
// frames and events were pooled, ~485 while each frame the pool made and
// each INT stack was its own object, ~146 since both are carved from the
// pool's chunks, ~107 since the loop owns the storage every run grows (the
// engine store, the pool's chunks, the rings and send lists). CI gates it at
// the measured count + 10 %. Owning the storage also makes B/op one value:
// a collection between iterations takes nothing from it.
func BenchmarkMicroSteadyState(b *testing.B) {
	var st netsim.Storage
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if peak, _ := benchMicro(b, &st, nil); peak <= 0 {
			b.Fatal("no queue buildup: benchmark not exercising the hot path")
		}
	}
}

// BenchmarkTelemetryOverhead pairs the micro run with every packet probe
// class sampling at 10x the base RTT (13 us -> 130 us interval), the
// recommended production cadence, against the same run with telemetry off,
// each side on storage of its own. CI bounds its ratio at <= 1.05: probes
// must cost under 5%.
func BenchmarkTelemetryOverhead(b *testing.B) {
	tel := &telemetry.Config{
		Interval: 130 * sim.Microsecond, // 10 RTTs
		Probes:   telemetry.PacketProbes(),
	}
	var on, off netsim.Storage
	b.ReportAllocs()
	benchpair.Ratio(b, func() {
		if _, res := benchMicro(b, &on, tel); res.Telemetry == nil || res.Telemetry.Samples == 0 {
			b.Fatal("telemetry not sampling: benchmark measures nothing")
		}
	}, func() { benchMicro(b, &off, nil) })
}

// TestOwnedStorageAllocatesTheSameAfterGC: two runs of
// BenchmarkMicroSteadyState's workload on storage the test owns allocate the
// same bytes, with two collections before each. A sync.Pool empties itself
// over two collections, so while the engine store lived in one the second
// run's bytes depended on when the GC ran; owned storage is not the
// collector's to take. MemStats counts the whole process, and the runtime's
// own goroutines allocate a few bytes now and then, so a pair that differs is
// measured again, a few times, before it fails.
func TestOwnedStorageAllocatesTheSameAfterGC(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var st netsim.Storage
	benchMicro(t, &st, nil) // grows the storage
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		benchMicro(t, &st, nil)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var a, b uint64
	for try := 0; try < 5; try++ {
		if a, b = run(), run(); a == b {
			return
		}
	}
	t.Fatalf("two runs on one owned storage allocated %d and %d bytes", a, b)
}
