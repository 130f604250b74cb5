package exp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// FairnessConfig is the Fig 13e experiment: N long-lived flows into one
// receiver; every Stagger a new sender joins, then (after all have joined)
// they exit in joining order, again one per Stagger. Throughput per flow is
// sampled throughout.
//
// The paper staggers by 100 ms; at packet granularity that is an expensive
// run, so Stagger is a parameter — the shape (stair-step convergence to
// B/k at every membership change) is invariant to it as long as Stagger
// spans many RTTs.
type FairnessConfig struct {
	Scheme      string
	Senders     int
	RateBps     int64
	Stagger     sim.Time
	SampleEvery sim.Time
	// Workers > 1 enables the sharded parallel packet executor
	// (bit-identical to serial; see topo.ChainOpts.Workers).
	Workers int
	// MakeScheme, when non-nil, overrides the registry lookup of Scheme.
	MakeScheme SchemeBuilder `json:"-"`
	// Telemetry, when enabled, attaches in-simulation probes for the run.
	Telemetry *telemetry.Config `json:"-"`
}

// DefaultFairnessConfig uses a CI-friendly 1 ms stagger (≈75 RTTs).
func DefaultFairnessConfig(scheme string) FairnessConfig {
	return FairnessConfig{
		Scheme:      scheme,
		Senders:     4,
		RateBps:     100e9,
		Stagger:     sim.Millisecond,
		SampleEvery: 20 * sim.Microsecond,
	}
}

// FairnessResult carries per-flow goodput series and Jain indexes.
type FairnessResult struct {
	Scheme string
	// Goodput holds one series per flow: acked bits per second, averaged
	// over each sample window.
	Goodput []*metrics.Series
	// JainAllActive is Jain's index over the flows active in the window
	// where all Senders overlap, averaged across samples.
	JainAllActive float64
	// Duration is the total simulated span.
	Duration sim.Time
	// Perf is the run's simulator-performance telemetry.
	Perf PerfStats
	// Telemetry is the probe output (nil unless configured).
	Telemetry *telemetry.Output
}

// RunFairness executes the experiment.
func RunFairness(cfg FairnessConfig) (*FairnessResult, error) {
	if cfg.Senders < 2 {
		return nil, fmt.Errorf("exp: fairness needs >= 2 senders")
	}
	probe := BeginPerf()
	scheme, err := buildScheme(cfg.Scheme, cfg.MakeScheme)
	if err != nil {
		return nil, err
	}
	opts := topo.DefaultChainOpts(cfg.Senders)
	opts.RateBps = cfg.RateBps
	opts.Workers = cfg.Workers
	c, err := topo.BuildChain(netsim.DefaultConfig(), scheme, opts)
	if err != nil {
		return nil, err
	}

	// Flow i is sized to live from i*Stagger until (Senders+i)*Stagger if
	// it received exactly its fair share throughout; line-rate elephants
	// trimmed by CC will complete near that point. To keep exits at
	// deterministic times instead, give each flow "infinite" size and
	// measure over the join phase plus one full-membership window; exits
	// are forced by the flow sizes below.
	//
	// Fair-share integral for flow i joining at i*S and exiting at
	// (Senders+i)*S: S * B * (sum over windows of 1/active).
	dur := sim.Time(2*cfg.Senders) * cfg.Stagger
	flows := make([]*netsim.Flow, cfg.Senders)
	for i := range flows {
		bytes := fairShareBytes(cfg.Senders, i, cfg.Stagger, cfg.RateBps)
		flows[i] = c.AddFlow(uint64(i+1), i, bytes, sim.Time(i)*cfg.Stagger)
	}

	res := &FairnessResult{Scheme: cfg.Scheme, Duration: dur}
	lastAcked := make([]int64, cfg.Senders)
	for i := range flows {
		res.Goodput = append(res.Goodput,
			metrics.NewSeries(fmt.Sprintf("%s/flow%d_goodput_bps", cfg.Scheme, i)))
	}
	var jainSum float64
	var jainN int
	allFrom := sim.Time(cfg.Senders-1) * cfg.Stagger
	allTo := sim.Time(cfg.Senders) * cfg.Stagger
	win := cfg.SampleEvery.Seconds()
	stop := c.Net.GlobalTicker(cfg.SampleEvery, func() {
		now := c.Net.Eng.Now()
		var rates []float64
		for i, f := range flows {
			acked := f.SndUna()
			bps := float64(acked-lastAcked[i]) * 8 / win
			lastAcked[i] = acked
			res.Goodput[i].Add(now, bps)
			if now >= allFrom && now < allTo {
				rates = append(rates, bps)
			}
		}
		if len(rates) == cfg.Senders {
			jainSum += metrics.JainIndex(rates)
			jainN++
		}
	})
	tp := attachNet(c.Net, cfg.Telemetry, dur)
	c.Net.RunUntil(dur)
	stop()
	res.Telemetry = probeOutput(tp)
	if jainN > 0 {
		res.JainAllActive = jainSum / float64(jainN)
	}
	res.Perf = probe.End(c.Net)
	return res, nil
}

// fairShareBytes integrates flow i's fair share of B across the membership
// schedule (joins at i*S, exits in join order once everyone has joined).
func fairShareBytes(n, i int, s sim.Time, rateBps int64) int64 {
	bytesPerWindow := float64(rateBps) / 8 * s.Seconds()
	total := 0.0
	// Windows are [k*S, (k+1)*S); flow i is active for k in [i, n+i).
	for k := i; k < n+i; k++ {
		active := 0
		for j := 0; j < n; j++ {
			if k >= j && k < n+j {
				active++
			}
		}
		if active > 0 {
			total += bytesPerWindow / float64(active)
		}
	}
	return int64(total)
}
