package exp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// IncastConfig is the N-to-1 burst scenario motivating LHCS (§3.2.2,
// Observation 4): N senders, all attached at the receiver-side switch,
// start simultaneously; every byte of congestion lands on the last hop.
type IncastConfig struct {
	Scheme string
	// Fanout is N, the number of simultaneous senders.
	Fanout int
	// BytesPerSender is each responder's transfer size.
	BytesPerSender int64
	// RateBps is the uniform link rate.
	RateBps int64
	// Deadline bounds the run.
	Deadline sim.Time
	// Workers > 1 enables the sharded parallel packet executor
	// (bit-identical to serial; see topo.ChainOpts.Workers).
	Workers int
	// MakeScheme, when non-nil, overrides the registry lookup of Scheme.
	MakeScheme SchemeBuilder `json:"-"`
	// Telemetry, when enabled, attaches in-simulation probes for the run.
	Telemetry *telemetry.Config `json:"-"`
}

// DefaultIncastConfig is a 16:1, 2 MB-per-sender burst at 100 G.
func DefaultIncastConfig(scheme string) IncastConfig {
	return IncastConfig{
		Scheme:         scheme,
		Fanout:         16,
		BytesPerSender: 2 << 20,
		RateBps:        100e9,
		Deadline:       100 * sim.Millisecond,
	}
}

// IncastResult summarizes one incast run.
type IncastResult struct {
	Scheme string
	Fanout int
	// QueuePeak is the last-hop egress peak (bytes).
	QueuePeak int64
	// PauseFrames counts PFC pauses at the last-hop switch.
	PauseFrames int64
	// AllDoneAt is when the last responder finished (-1 if the deadline
	// hit first).
	AllDoneAt sim.Time
	// JainFinalRates is Jain's index over the senders' pacing rates while
	// all are active, sampled at its minimum after the first RTT (worst
	// observed unfairness once control is in effect).
	JainFinalRates float64
	// LHCSTriggers totals Algorithm 2 firings across senders (FNCC only).
	LHCSTriggers int64
	// Perf is the run's simulator-performance telemetry.
	Perf PerfStats
	// Telemetry is the probe output (nil unless configured).
	Telemetry *telemetry.Output
}

// RunIncast executes the burst.
func RunIncast(cfg IncastConfig) (*IncastResult, error) {
	if cfg.Fanout < 2 {
		return nil, fmt.Errorf("exp: incast needs fanout >= 2")
	}
	probe := BeginPerf()
	scheme, err := buildScheme(cfg.Scheme, cfg.MakeScheme)
	if err != nil {
		return nil, err
	}
	opts := topo.DefaultChainOpts(cfg.Fanout)
	opts.RateBps = cfg.RateBps
	opts.Workers = cfg.Workers
	for i := range opts.SenderAttach {
		opts.SenderAttach[i] = opts.Switches - 1 // all on the last switch
	}
	c, err := topo.BuildChain(netsim.DefaultConfig(), scheme, opts)
	if err != nil {
		return nil, err
	}
	flows := make([]*netsim.Flow, cfg.Fanout)
	for i := range flows {
		flows[i] = c.AddFlow(uint64(i+1), i, cfg.BytesPerSender, 0)
	}

	res := &IncastResult{Scheme: cfg.Scheme, Fanout: cfg.Fanout, AllDoneAt: -1, JainFinalRates: 1}
	port := c.HopPort(opts.Switches - 1)
	baseRTT := c.Net.Cfg.BaseRTT
	stop := c.Net.GlobalTicker(5*sim.Microsecond, func() {
		if q := port.QueueBytes(); q > res.QueuePeak {
			res.QueuePeak = q
		}
		if c.Net.Eng.Now() < baseRTT {
			return
		}
		rates := make([]float64, 0, cfg.Fanout)
		for _, f := range flows {
			if !f.Finished() {
				rates = append(rates, float64(f.CC().RateBps()))
			}
		}
		if len(rates) == cfg.Fanout {
			if j := metrics.JainIndex(rates); j < res.JainFinalRates {
				res.JainFinalRates = j
			}
		}
	})
	tp := attachNet(c.Net, cfg.Telemetry, cfg.Deadline)
	if c.Net.RunToCompletion(cfg.Deadline) {
		last := sim.Time(0)
		for _, f := range flows {
			if f.FinishedAt > last {
				last = f.FinishedAt
			}
		}
		res.AllDoneAt = last
	}
	stop()
	res.Telemetry = probeOutput(tp)
	res.PauseFrames = c.Switches[opts.Switches-1].PauseFrames
	for _, f := range flows {
		if lh, ok := lhcsTriggersOf(f); ok {
			res.LHCSTriggers += lh
		}
	}
	res.Perf = probe.End(c.Net)
	return res, nil
}
