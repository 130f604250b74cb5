package exp

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// BenchmarkMicroSteadyState runs the complete §5.1 micro-benchmark — build,
// 400 us of simulated congestion, teardown — once per iteration. Unlike the
// engine/forwarding benches this includes all per-run setup, so allocs/op
// is the whole run's allocation budget; the pooling work cut it from
// ~125k to well under 5k per run (see BENCH_2.json for the pinned point).
func BenchmarkMicroSteadyState(b *testing.B) {
	cfg := DefaultMicroConfig(SchemeFNCC, 100e9)
	cfg.Duration = 400 * sim.Microsecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RunMicro(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.QueuePeak <= 0 {
			b.Fatal("no queue buildup: benchmark not exercising the hot path")
		}
	}
}

// BenchmarkMicroTelemetryOn is BenchmarkMicroSteadyState with every packet
// probe class sampling at 10x the base RTT (13 us -> 130 us interval), the
// recommended production cadence. cmd/benchguard pins the ratio of this
// bench to the telemetry-off one at <= 1.05: probes must cost under 5%.
func BenchmarkMicroTelemetryOn(b *testing.B) {
	cfg := DefaultMicroConfig(SchemeFNCC, 100e9)
	cfg.Duration = 400 * sim.Microsecond
	cfg.Telemetry = &telemetry.Config{
		Interval: 130 * sim.Microsecond, // 10 RTTs
		Probes:   telemetry.PacketProbes(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RunMicro(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Telemetry == nil || r.Telemetry.Samples == 0 {
			b.Fatal("telemetry not sampling: benchmark measures nothing")
		}
	}
}
