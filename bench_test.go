// Benchmarks regenerating every table and figure of the paper's evaluation
// at CI scale (full-scale parameter sets run through cmd/fnccbench). Each
// benchmark reports the figure's headline quantity via b.ReportMetric, so
// `go test -bench=.` prints the reproduction numbers alongside the runtime
// cost. DESIGN.md's experiment index maps figures to these benchmarks.
package fncc

import (
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchFigure runs one figure point b.N times through the scenario front
// door and returns the last run.
func benchFigure(b *testing.B, sp Scenario) *ScenarioResult {
	b.Helper()
	var res *ScenarioResult
	for i := 0; i < b.N; i++ {
		r, err := RunScenario(sp)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	return res
}

// microAt is the dumbbell micro-benchmark at a link rate and window.
func microAt(scheme string, rateGbps, durUs int64) Scenario {
	return Scenario{Kind: "micro", Scheme: scheme,
		Topo: ScenarioTopo{RateGbps: rateGbps}, DurationUs: durUs}
}

// --- Fig 1b-d: queue length vs time at 100/200/400 G (DCQCN/HPCC/FNCC) ---

func benchFig1(b *testing.B, rateGbps int64) {
	for _, scheme := range []string{SchemeDCQCN, SchemeHPCC, SchemeFNCC} {
		b.Run(scheme, func(b *testing.B) {
			r := benchFigure(b, microAt(scheme, rateGbps, 600))
			b.ReportMetric(r.Metrics["queue_peak_bytes"]/1000, "queuePeakKB")
		})
	}
}

func BenchmarkFig1QueueLength100G(b *testing.B) { benchFig1(b, 100) }
func BenchmarkFig1QueueLength200G(b *testing.B) { benchFig1(b, 200) }
func BenchmarkFig1QueueLength400G(b *testing.B) { benchFig1(b, 400) }

// --- Fig 3: PFC pause frames at the congestion point, 200/400 G ---

func benchFig3(b *testing.B, rateBps int64) {
	for _, scheme := range []string{SchemeDCQCN, SchemeHPCC, SchemeFNCC} {
		b.Run(scheme, func(b *testing.B) {
			var pauses int64
			for i := 0; i < b.N; i++ {
				// The paper's 500KB threshold at full scale; at bench scale
				// a tighter threshold exposes the same ordering. A fabric
				// constant is not a scenario field, so this figure alone
				// builds its own NetConfig and offers the micro-benchmark's
				// two elephants to the chain fabric itself.
				cfg := DefaultNetConfig()
				cfg.PFCPauseBytes, cfg.PFCResumeBytes = 200<<10, 180<<10
				opts := DefaultChainOpts(2)
				opts.RateBps = rateBps
				pc, err := exp.NewPacketChain(MustScheme(scheme), cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				for src, start := range []Time{0, 300 * Microsecond} {
					fs := workload.FlowSpec{ID: uint64(src + 1), SrcHost: src, DstHost: 2, SizeBytes: 1 << 40, Start: start}
					if err := pc.AddFlow(fs); err != nil {
						b.Fatal(err)
					}
				}
				pc.HoldToDeadline()
				pc.Run(900*Microsecond, nil)
				pauses = pc.Chain.Switches[0].PauseFrames
			}
			b.ReportMetric(float64(pauses), "pauseFrames")
		})
	}
}

func BenchmarkFig3PauseFrames200G(b *testing.B) { benchFig3(b, 200e9) }
func BenchmarkFig3PauseFrames400G(b *testing.B) { benchFig3(b, 400e9) }

// --- Fig 9: response speed + utilization, all four schemes ---

func BenchmarkFig9ResponseSpeed100G(b *testing.B) {
	for _, scheme := range AllSchemes() {
		b.Run(scheme, func(b *testing.B) {
			r := benchFigure(b, microAt(scheme, 100, 800))
			b.ReportMetric(r.Metrics["first_slowdown_us"], "firstSlowdown_us")
		})
	}
}

func BenchmarkFig9Utilization(b *testing.B) {
	for _, rateGbps := range []int64{200, 400} {
		for _, scheme := range AllSchemes() {
			b.Run(fmt.Sprintf("%dG/%s", rateGbps, scheme), func(b *testing.B) {
				r := benchFigure(b, microAt(scheme, rateGbps, 700))
				b.ReportMetric(100*r.Metrics["mean_util"], "meanUtil_pct")
			})
		}
	}
}

// --- Fig 13a-d: gains by congestion location, including the LHCS ablation ---

func BenchmarkFig13HopLocation(b *testing.B) {
	for _, pos := range []string{"first", "middle", "last"} {
		for _, scheme := range []string{SchemeHPCC, SchemeFNCC, SchemeFNCCNoLHCS} {
			if scheme == SchemeFNCCNoLHCS && pos != "last" {
				continue // the paper only ablates LHCS at the last hop
			}
			b.Run(fmt.Sprintf("%s/%s", pos, scheme), func(b *testing.B) {
				r := benchFigure(b, Scenario{Kind: "hop", Scheme: scheme, Hop: pos})
				b.ReportMetric(r.Metrics["queue_peak_bytes"]/1000, "queuePeakKB")
				b.ReportMetric(100*r.Metrics["mean_util"], "meanUtil_pct")
			})
		}
	}
}

// --- Fig 13e: fairness over staggered flows ---

func BenchmarkFig13Fairness(b *testing.B) {
	for _, scheme := range []string{SchemeFNCC, SchemeHPCC} {
		b.Run(scheme, func(b *testing.B) {
			r := benchFigure(b, Scenario{Kind: "fairness", Scheme: scheme,
				Workload: ScenarioWorkload{StaggerUs: 500}})
			b.ReportMetric(r.Metrics["jain_all_active"], "jainIndex")
		})
	}
}

// --- Figs 14/15: fat-tree FCT slowdown sweeps ---

func benchFCT(b *testing.B, wl string, horizonUs int64, load float64) {
	for _, scheme := range []string{SchemeDCQCN, SchemeHPCC, SchemeFNCC} {
		b.Run(scheme, func(b *testing.B) {
			// CI-scale fabric; the registry's fct-* scenarios run k=8.
			r := benchFigure(b, Scenario{Kind: "fct", Scheme: scheme,
				Topo: ScenarioTopo{K: 4}, Workload: ScenarioWorkload{CDF: wl},
				Load: load, DurationUs: horizonUs})
			b.ReportMetric(r.FCT.SlowdownDist(0, 100_000).P95(), "p95SlowdownSmall")
			if medLarge := r.FCT.SlowdownDist(1_000_000, 1<<62).Median(); medLarge > 0 {
				b.ReportMetric(medLarge, "medianSlowdownLarge")
			}
		})
	}
}

func BenchmarkFig14WebSearchFCT(b *testing.B) { benchFCT(b, "websearch", 2000, 0.5) }

func BenchmarkFig15HadoopFCT(b *testing.B) { benchFCT(b, "hadoop", 1000, 0.5) }

// --- Fig 2/12 model: notification latency by congested hop ---

func BenchmarkNotificationLatency(b *testing.B) {
	for _, scheme := range []string{SchemeFNCC, SchemeHPCC} {
		b.Run(scheme, func(b *testing.B) {
			r := benchFigure(b, Scenario{Kind: "notify", Scheme: scheme, Hop: "first"})
			b.ReportMetric(r.Metrics["notify_latency_us"], "firstHopNotify_us")
		})
	}
}

// --- Ablation A1: symmetric vs asymmetric ECMP hashing for FNCC ---

func BenchmarkAblationAsymmetricRouting(b *testing.B) {
	for _, symmetric := range []bool{true, false} {
		name := "symmetric"
		if !symmetric {
			name = "asymmetric"
		}
		b.Run(name, func(b *testing.B) {
			var p95 float64
			for i := 0; i < b.N; i++ {
				scheme := MustScheme(SchemeFNCC)
				cfg := DefaultNetConfig()
				cfg.SymmetricECMP = symmetric
				ft := MustFatTree(cfg, scheme, FatTreeOpts{K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond})
				wlFlows := incastWorkload(ft, 800)
				ft.Net.RunToCompletion(50 * sim.Millisecond)
				d := ft.Net.FCT.SlowdownDist(0, 1<<62)
				p95 = d.P95()
				_ = wlFlows
			}
			b.ReportMetric(p95, "p95Slowdown")
		})
	}
}

// incastWorkload adds a deterministic mixed workload across the fat-tree.
func incastWorkload(ft *FatTree, flows int) int {
	rng := sim.NewRNG(7)
	hosts := len(ft.Hosts)
	for i := 0; i < flows; i++ {
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		size := int64(2000 + rng.Intn(60_000))
		start := sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
		ft.AddFlow(uint64(i+1), src, dst, size, start)
	}
	return flows
}

// --- Ablation A2: cumulative ACK coalescing (§3.2.3) ---

func BenchmarkAblationCumulativeAck(b *testing.B) {
	for _, every := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ackEvery%d", every), func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				scheme := MustScheme(SchemeFNCC)
				cfg := DefaultNetConfig()
				cfg.AckEveryN = every
				c := MustChain(cfg, scheme, DefaultChainOpts(2))
				c.AddFlow(1, 0, 1<<40, 0)
				c.AddFlow(2, 1, 1<<40, 300*sim.Microsecond)
				var maxQ int64
				stop := c.Net.Eng.Ticker(sim.Microsecond, func() {
					if q := c.BottleneckPort().QueueBytes(); q > maxQ {
						maxQ = q
					}
				})
				c.Net.RunUntil(800 * sim.Microsecond)
				stop()
				peak = float64(maxQ)
			}
			b.ReportMetric(peak/1000, "queuePeakKB")
		})
	}
}

// --- Ablation A3: LHCS β sensitivity (Algorithm 2's drain factor) ---

func BenchmarkAblationLHCSParams(b *testing.B) {
	for _, beta := range []float64{0.8, 0.9, 0.95, 1.0} {
		b.Run(fmt.Sprintf("beta%.2f", beta), func(b *testing.B) {
			var peak, util float64
			for i := 0; i < b.N; i++ {
				fc := DefaultFNCCConfig()
				fc.Beta = beta
				scheme := NewFNCCScheme(fc)
				opts := DefaultChainOpts(2)
				opts.SenderAttach = []int{0, 2}
				c := MustChain(DefaultNetConfig(), scheme, opts)
				c.AddFlow(1, 0, 1<<40, 0)
				c.AddFlow(2, 1, 1<<40, 300*sim.Microsecond)
				port := c.HopPort(2)
				var maxQ int64
				var lastTx uint64
				var utilSum float64
				var utilN int
				stop := c.Net.Eng.Ticker(sim.Microsecond, func() {
					if q := port.QueueBytes(); q > maxQ {
						maxQ = q
					}
					tx := port.TxBytes()
					if c.Net.Eng.Now() > 320*sim.Microsecond {
						utilSum += float64(tx-lastTx) * 8 / (100e9 * sim.Microsecond.Seconds())
						utilN++
					}
					lastTx = tx
				})
				c.Net.RunUntil(700 * sim.Microsecond)
				stop()
				peak = float64(maxQ)
				if utilN > 0 {
					util = utilSum / float64(utilN)
				}
			}
			b.ReportMetric(peak/1000, "queuePeakKB")
			b.ReportMetric(100*util, "meanUtil_pct")
		})
	}
}

// --- Extension baselines: Timely and Swift on the Fig 9 micro-benchmark ---

func BenchmarkExtensionBaselines(b *testing.B) {
	for _, scheme := range []string{SchemeTimely, SchemeSwift} {
		b.Run(scheme, func(b *testing.B) {
			r := benchFigure(b, microAt(scheme, 100, 800))
			b.ReportMetric(r.Metrics["queue_peak_bytes"]/1000, "queuePeakKB")
			b.ReportMetric(r.Metrics["first_slowdown_us"], "firstSlowdown_us")
		})
	}
}

// --- Substrate microbenchmarks: simulator cost itself ---

func BenchmarkSubstrateDumbbellSimSpeed(b *testing.B) {
	// Cost of simulating 200us of the 2-flow dumbbell with FNCC: reported
	// as wall time per simulated event.
	for i := 0; i < b.N; i++ {
		c := MustChain(DefaultNetConfig(), MustScheme(SchemeFNCC), DefaultChainOpts(2))
		c.AddFlow(1, 0, 1<<40, 0)
		c.AddFlow(2, 1, 1<<40, 50*sim.Microsecond)
		c.Net.RunUntil(200 * sim.Microsecond)
		b.ReportMetric(float64(c.Net.Eng.Processed()), "events")
	}
}
