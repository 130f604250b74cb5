package exp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// HopPosition selects where the joining flow collides with the base flow
// (Fig 11): at the first, middle, or last switch of the M=3 chain.
type HopPosition string

// Hop positions of the Fig 13 gains study.
const (
	HopFirst  HopPosition = "first"
	HopMiddle HopPosition = "middle"
	HopLast   HopPosition = "last"
)

// HopConfig is the Fig 13a-d experiment: congestion placed at a chosen hop,
// FNCC (with and without LHCS) against HPCC.
type HopConfig struct {
	Position    HopPosition
	Scheme      string
	RateBps     int64
	Flow1Start  sim.Time
	Flow1Stop   bool // second flow is finite so congestion clears (Fig 13d)
	Flow1Bytes  int64
	Duration    sim.Time
	SampleEvery sim.Time
	// Workers > 1 enables the sharded parallel packet executor
	// (bit-identical to serial; see topo.ChainOpts.Workers).
	Workers int
	// MakeScheme, when non-nil, overrides the registry lookup of Scheme.
	MakeScheme SchemeBuilder `json:"-"`
	// Telemetry, when enabled, attaches in-simulation probes for the run.
	Telemetry *telemetry.Config `json:"-"`
}

// DefaultHopConfig mirrors §5.4: 100 Gbps, flow1 joins at 300 us and (for
// the rate plot) drains around 450 us.
func DefaultHopConfig(scheme string, pos HopPosition) HopConfig {
	return HopConfig{
		Position:    pos,
		Scheme:      scheme,
		RateBps:     100e9,
		Flow1Start:  300 * sim.Microsecond,
		Flow1Stop:   true,
		Flow1Bytes:  1_800_000, // ~150us at line rate, clears by ~450us
		Duration:    800 * sim.Microsecond,
		SampleEvery: sim.Microsecond,
	}
}

// HopResult carries the Fig 13 quantities.
type HopResult struct {
	Scheme   string
	Position HopPosition
	// Queue is the contended egress queue over time.
	Queue *metrics.Series
	// Util is the contended link utilization.
	Util *metrics.Series
	// Rates are the two flows' pacing rates.
	Rates [2]*metrics.Series
	// QueuePeak is the figure's headline number (bytes).
	QueuePeak float64
	// MeanUtil averages utilization over the congestion episode.
	MeanUtil float64
	// LHCSTriggers counts Algorithm 2 firings on flow 0 (FNCC only).
	LHCSTriggers int64
	// Perf is the run's simulator-performance telemetry.
	Perf PerfStats
	// Telemetry is the probe output (nil unless configured).
	Telemetry *telemetry.Output
}

// RunHop executes one hop-location experiment.
func RunHop(cfg HopConfig) (*HopResult, error) {
	probe := BeginPerf()
	scheme, err := buildScheme(cfg.Scheme, cfg.MakeScheme)
	if err != nil {
		return nil, err
	}
	attach := map[HopPosition]int{HopFirst: 0, HopMiddle: 1, HopLast: 2}
	at, ok := attach[cfg.Position]
	if !ok {
		return nil, fmt.Errorf("exp: unknown hop position %q", cfg.Position)
	}
	opts := topo.DefaultChainOpts(2)
	opts.RateBps = cfg.RateBps
	opts.SenderAttach = []int{0, at}
	opts.Workers = cfg.Workers
	c, err := topo.BuildChain(netsim.DefaultConfig(), scheme, opts)
	if err != nil {
		return nil, err
	}

	f0 := c.AddFlow(1, 0, 1<<40, 0)
	f1Bytes := int64(1 << 40)
	if cfg.Flow1Stop {
		f1Bytes = cfg.Flow1Bytes
	}
	f1 := c.AddFlow(2, 1, f1Bytes, cfg.Flow1Start)

	// The contended egress is the attach switch's port toward the receiver.
	port := c.HopPort(at)
	res := &HopResult{
		Scheme:   cfg.Scheme,
		Position: cfg.Position,
		Queue:    metrics.NewSeries(fmt.Sprintf("%s/%s/queue_bytes", cfg.Scheme, cfg.Position)),
		Util:     metrics.NewSeries(fmt.Sprintf("%s/%s/utilization", cfg.Scheme, cfg.Position)),
	}
	res.Rates[0] = metrics.NewSeries(cfg.Scheme + "/flow0_rate_bps")
	res.Rates[1] = metrics.NewSeries(cfg.Scheme + "/flow1_rate_bps")

	var lastTx uint64
	winBits := float64(cfg.RateBps) * cfg.SampleEvery.Seconds()
	stop := c.Net.GlobalTicker(cfg.SampleEvery, func() {
		now := c.Net.Eng.Now()
		res.Queue.Add(now, float64(port.QueueBytes()))
		tx := port.TxBytes()
		res.Util.Add(now, float64(tx-lastTx)*8/winBits)
		lastTx = tx
		res.Rates[0].Add(now, float64(f0.CC().RateBps()))
		res.Rates[1].Add(now, float64(f1.CC().RateBps()))
	})
	tp := attachNet(c.Net, cfg.Telemetry, cfg.Duration)
	c.Net.RunUntil(cfg.Duration)
	stop()
	res.Telemetry = probeOutput(tp)

	res.QueuePeak = res.Queue.Max()
	res.MeanUtil = res.Util.MeanIn(cfg.Flow1Start, cfg.Duration)
	if lh, ok := lhcsTriggersOf(f0); ok {
		res.LHCSTriggers = lh
	}
	res.Perf = probe.End(c.Net)
	return res, nil
}

// lhcsTriggersOf extracts the LHCS counter from an FNCC sender.
func lhcsTriggersOf(f *netsim.Flow) (int64, bool) {
	type counter interface{ LHCSCount() int64 }
	if c, ok := f.CC().(counter); ok {
		return c.LHCSCount(), true
	}
	return 0, false
}
