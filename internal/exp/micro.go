package exp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// attachNet wires a run's optional telemetry block to net for a run of the
// given span (nil block: no probe).
func attachNet(net *netsim.Network, c *telemetry.Config, span sim.Time) *telemetry.NetProbe {
	if c == nil {
		return nil
	}
	return telemetry.AttachNet(net, *c, telemetry.Samples(span, c.Interval))
}

// probeOutput stops a probe and extracts its output (nil-safe).
func probeOutput(tp *telemetry.NetProbe) *telemetry.Output {
	if tp == nil {
		return nil
	}
	tp.Stop()
	return tp.Output()
}

// MicroConfig is the Fig 9 / Fig 1b-d / Fig 3 micro-benchmark: the Fig 10
// dumbbell (M=3), flow0 from t=0 and flow1 joining at Flow1Start, both
// line-rate elephants; queue length, per-flow rates and bottleneck
// utilization are sampled over time.
type MicroConfig struct {
	// RateBps is the uniform link rate (the figures sweep 100/200/400 G).
	RateBps int64
	// Senders is N in Fig 10 (micro-benchmarks use 2).
	Senders int
	// Flow1Start is when the second and later flows join (paper: 300 us;
	// sender i>=1 starts at i*Flow1Start).
	Flow1Start sim.Time
	// Duration is the observation window.
	Duration sim.Time
	// SampleEvery is the series sampling period.
	SampleEvery sim.Time
	// PFCPauseBytes overrides the pause threshold (paper micro: 500 KB);
	// zero keeps the netsim default.
	PFCPauseBytes int64
	// Workers > 1 enables the sharded parallel packet executor
	// (bit-identical to serial; see topo.ChainOpts.Workers).
	Workers int
	// Scheme names the algorithm under test.
	Scheme string
	// MakeScheme, when non-nil, overrides the registry lookup of Scheme
	// (scenario layer injection point).
	MakeScheme SchemeBuilder `json:"-"`
	// Telemetry, when enabled, attaches in-simulation probes for the run.
	Telemetry *telemetry.Config `json:"-"`
}

// DefaultMicroConfig returns the §5.1 setup at the given rate.
func DefaultMicroConfig(scheme string, rateBps int64) MicroConfig {
	return MicroConfig{
		RateBps:       rateBps,
		Senders:       2,
		Flow1Start:    300 * sim.Microsecond,
		Duration:      1200 * sim.Microsecond,
		SampleEvery:   sim.Microsecond,
		PFCPauseBytes: 500 << 10,
		Scheme:        scheme,
	}
}

// MicroResult carries everything the micro figures plot.
type MicroResult struct {
	Scheme string
	// Queue is the bottleneck egress queue length over time (bytes).
	Queue *metrics.Series
	// Rates holds one pacing-rate series per flow (bps).
	Rates []*metrics.Series
	// Util is the bottleneck link utilization per sample window (0..1).
	Util *metrics.Series
	// PauseFrames and ResumeFrames count PFC activity at the congestion
	// point switch (Fig 3).
	PauseFrames  int64
	ResumeFrames int64
	// Drops counts fabric-wide losses (zero with PFC).
	Drops int64
	// FirstSlowdown is when flow0's rate first drops below 85% of line
	// after Flow1Start (the Fig 9b reaction-time comparison); -1 if never.
	FirstSlowdown sim.Time
	// QueuePeak is max(Queue) in bytes.
	QueuePeak float64
	// MeanUtil is the average bottleneck utilization from Flow1Start to the
	// end of the window.
	MeanUtil float64
	// Perf is the run's simulator-performance telemetry.
	Perf PerfStats
	// Telemetry is the probe output (nil unless configured).
	Telemetry *telemetry.Output
}

// RunMicro executes the micro-benchmark for one scheme.
func RunMicro(cfg MicroConfig) (*MicroResult, error) {
	if cfg.Senders < 2 {
		return nil, fmt.Errorf("exp: micro needs >= 2 senders")
	}
	probe := BeginPerf()
	scheme, err := buildScheme(cfg.Scheme, cfg.MakeScheme)
	if err != nil {
		return nil, err
	}
	ncfg := netsim.DefaultConfig()
	if cfg.PFCPauseBytes > 0 {
		ncfg.PFCPauseBytes = cfg.PFCPauseBytes
		ncfg.PFCResumeBytes = cfg.PFCPauseBytes * 9 / 10
	}
	opts := topo.DefaultChainOpts(cfg.Senders)
	opts.RateBps = cfg.RateBps
	opts.Workers = cfg.Workers
	c, err := topo.BuildChain(ncfg, scheme, opts)
	if err != nil {
		return nil, err
	}

	flows := make([]*netsim.Flow, cfg.Senders)
	for i := range flows {
		flows[i] = c.AddFlow(uint64(i+1), i, 1<<40, sim.Time(i)*cfg.Flow1Start)
	}

	res := &MicroResult{
		Scheme:        cfg.Scheme,
		Queue:         metrics.NewSeries(cfg.Scheme + "/queue_bytes"),
		Util:          metrics.NewSeries(cfg.Scheme + "/utilization"),
		FirstSlowdown: -1,
	}
	for i := range flows {
		res.Rates = append(res.Rates, metrics.NewSeries(fmt.Sprintf("%s/flow%d_rate_bps", cfg.Scheme, i)))
	}

	bport := c.BottleneckPort()
	var lastTx uint64
	winBits := float64(cfg.RateBps) * cfg.SampleEvery.Seconds()
	stop := c.Net.GlobalTicker(cfg.SampleEvery, func() {
		now := c.Net.Eng.Now()
		res.Queue.Add(now, float64(bport.QueueBytes()))
		tx := bport.TxBytes()
		res.Util.Add(now, float64(tx-lastTx)*8/winBits)
		lastTx = tx
		for i, f := range flows {
			res.Rates[i].Add(now, float64(f.CC().RateBps()))
		}
		if res.FirstSlowdown < 0 && now >= cfg.Flow1Start &&
			float64(flows[0].CC().RateBps()) < 0.85*float64(cfg.RateBps) {
			res.FirstSlowdown = now
		}
	})
	tp := attachNet(c.Net, cfg.Telemetry, cfg.Duration)
	c.Net.RunUntil(cfg.Duration)
	stop()
	res.Telemetry = probeOutput(tp)

	res.PauseFrames = c.Switches[0].PauseFrames
	res.ResumeFrames = c.Switches[0].ResumeFrames
	res.Drops = c.Net.Drops.N
	res.QueuePeak = res.Queue.Max()
	res.MeanUtil = res.Util.MeanIn(cfg.Flow1Start, cfg.Duration)
	res.Perf = probe.End(c.Net)
	return res, nil
}
