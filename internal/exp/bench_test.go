package exp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// benchMicro runs the complete §5.1 micro-benchmark on the chain fabric —
// build, two line-rate elephants (the second joining at 300 us), 400 us of
// simulated congestion, teardown — under the sampler the micro scenario kind
// runs (queue, link utilization and the first flow's pacing rate every
// microsecond), so harness.BenchmarkMicroObsOff over this one measures the
// layers above the fabric and nothing else. It returns the bottleneck queue
// peak and the run.
func benchMicro(b *testing.B, tel *telemetry.Config) (peak int64, res FlowsResult) {
	const join, line = 300 * sim.Microsecond, 100e9
	pc, err := NewPacketChain(MustScheme(SchemeFNCC), netsim.DefaultConfig(), topo.DefaultChainOpts(2))
	if err != nil {
		b.Fatal(err)
	}
	offer(b, pc, 1<<40, join)
	port, victim := pc.Chain.BottleneckPort(), pc.Flows[0]
	var (
		lastTx  uint64
		utilSum float64
		slowAt  = sim.Time(-1)
	)
	pc.Sample(sim.Microsecond, func(now sim.Time) {
		if q := port.QueueBytes(); q > peak {
			peak = q
		}
		tx := port.TxBytes()
		if now >= join {
			utilSum += float64(tx-lastTx) * 8 / (line * sim.Microsecond.Seconds())
			if slowAt < 0 && float64(victim.CC().RateBps()) < 0.85*line {
				slowAt = now
			}
		}
		lastTx = tx
	})
	pc.HoldToDeadline()
	res = pc.Run(400*sim.Microsecond, tel)
	if utilSum <= 0 || slowAt < 0 {
		b.Fatalf("the joining flow left no mark: util sum %v, first slowdown %v", utilSum, slowAt)
	}
	return peak, res
}

// BenchmarkMicroSteadyState runs the complete micro-benchmark once per
// iteration. Unlike the engine/forwarding benches this includes all per-run
// setup, so allocs/op is the whole run's allocation budget; the pooling work
// cut it from ~125k to well under 5k per run (see BENCH_2.json for the
// pinned point).
func BenchmarkMicroSteadyState(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if peak, _ := benchMicro(b, nil); peak <= 0 {
			b.Fatal("no queue buildup: benchmark not exercising the hot path")
		}
	}
}

// BenchmarkMicroTelemetryOn is BenchmarkMicroSteadyState with every packet
// probe class sampling at 10x the base RTT (13 us -> 130 us interval), the
// recommended production cadence. cmd/benchguard pins the ratio of this
// bench to the telemetry-off one at <= 1.05: probes must cost under 5%.
func BenchmarkMicroTelemetryOn(b *testing.B) {
	tel := &telemetry.Config{
		Interval: 130 * sim.Microsecond, // 10 RTTs
		Probes:   telemetry.PacketProbes(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, res := benchMicro(b, tel); res.Telemetry == nil || res.Telemetry.Samples == 0 {
			b.Fatal("telemetry not sampling: benchmark measures nothing")
		}
	}
}
