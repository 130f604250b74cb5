package exp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// FCTConfig is the §5.5 large-scale experiment: a k-ary fat-tree driven by
// an open-loop Poisson workload at a target load; the output is the FCT
// slowdown table per flow-size bucket (Figs 14, 15).
type FCTConfig struct {
	Scheme string
	// K is the fat-tree arity (paper: 8 -> 128 hosts).
	K int
	// RateBps is the uniform link rate (paper: 100 G).
	RateBps int64
	// Workload is "websearch" or "hadoop".
	Workload string
	// Load is the average access-link load (paper: 0.5).
	Load float64
	// Horizon is the arrival window; the run then drains until all flows
	// complete or DrainFactor*Horizon elapses.
	Horizon sim.Time
	// DrainFactor bounds the post-arrival drain phase.
	DrainFactor int
	// Seed drives workload generation and fabric randomness.
	Seed int64
	// CoreRateBps oversubscribes the aggregation-core tier when set below
	// RateBps; zero keeps the paper's 1:1 fabric.
	CoreRateBps int64
	// Workers > 1 enables the sharded parallel packet executor
	// (bit-identical to serial; see topo.FatTreeOpts.Workers).
	Workers int
	// MakeScheme, when non-nil, overrides the registry lookup of Scheme.
	MakeScheme SchemeBuilder `json:"-"`
	// Telemetry, when enabled, attaches in-simulation probes for the run.
	Telemetry *telemetry.Config `json:"-"`
}

// DefaultFCTConfig mirrors §5.5 at a CI-friendly horizon; cmd/fctsweep
// raises Horizon and K for paper-scale runs.
func DefaultFCTConfig(scheme, wl string) FCTConfig {
	return FCTConfig{
		Scheme:      scheme,
		K:           8,
		RateBps:     100e9,
		Workload:    wl,
		Load:        0.5,
		Horizon:     2 * sim.Millisecond,
		DrainFactor: 10,
		Seed:        1,
	}
}

// WebSearchBuckets are the Fig 14 x-axis flow-size bins.
func WebSearchBuckets() []metrics.Bucket {
	edges := []int64{10_000, 20_000, 30_000, 50_000, 80_000, 200_000,
		1_000_000, 2_000_000, 5_000_000, 10_000_000, 30_000_000}
	return bucketize(edges, []string{"10KB", "20KB", "30KB", "50KB", "80KB",
		"200KB", "1MB", "2MB", "5MB", "10MB", "30MB"})
}

// HadoopBuckets are the Fig 15 x-axis flow-size bins.
func HadoopBuckets() []metrics.Bucket {
	edges := []int64{75, 250, 350, 1_000, 2_000, 6_000, 10_000, 15_000,
		23_000, 24_000, 25_000, 100_000, 1_000_000}
	return bucketize(edges, []string{"75B", "250B", "350B", "1KB", "2KB",
		"6KB", "10KB", "15KB", "23KB", "24KB", "25KB", "100KB", "1MB"})
}

func bucketize(edges []int64, labels []string) []metrics.Bucket {
	out := make([]metrics.Bucket, len(edges))
	lo := int64(0)
	for i, hi := range edges {
		out[i] = metrics.Bucket{Label: labels[i], LoByte: lo, HiByte: hi}
		lo = hi
	}
	return out
}

// BucketsFor returns the figure buckets for a workload name.
func BucketsFor(wl string) ([]metrics.Bucket, error) {
	switch wl {
	case "websearch", "WebSearch":
		return WebSearchBuckets(), nil
	case "hadoop", "fbhadoop", "FB_Hadoop":
		return HadoopBuckets(), nil
	default:
		return nil, fmt.Errorf("exp: no buckets for workload %q", wl)
	}
}

// FCTResult is one run's outcome.
type FCTResult struct {
	Scheme    string
	Workload  string
	Seed      int64
	Collector *metrics.FCTCollector
	// Completed / Generated track drain success.
	Completed int
	Generated int
	// OfferedLoad is the realized workload load.
	OfferedLoad float64
	// PauseFrames, Drops: fabric counters for the run.
	PauseFrames int64
	Drops       int64
	// Perf is the run's simulator-performance telemetry.
	Perf PerfStats
	// Telemetry is the probe output (nil unless configured).
	Telemetry *telemetry.Output
}

// RunFCT executes one (scheme, seed) large-scale run on the packet fat-tree.
func RunFCT(cfg FCTConfig) (*FCTResult, error) {
	scheme, err := buildScheme(cfg.Scheme, cfg.MakeScheme)
	if err != nil {
		return nil, err
	}
	cdf, ok := workload.ByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("exp: unknown workload %q", cfg.Workload)
	}
	fab, err := NewPacketFatTree(scheme, cfg.Seed, topo.FatTreeOpts{K: cfg.K,
		RateBps: cfg.RateBps, CoreRateBps: cfg.CoreRateBps,
		Delay: 1500 * sim.Nanosecond, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	flows, err := workload.Generate(workload.GenConfig{
		Hosts:     fab.Hosts(),
		AccessBps: cfg.RateBps,
		Load:      cfg.Load,
		CDF:       cdf,
		Horizon:   cfg.Horizon,
		Seed:      cfg.Seed,
		FirstID:   1,
	})
	if err != nil {
		return nil, err
	}
	for _, fs := range flows {
		if err := fab.AddFlow(fs); err != nil {
			return nil, err
		}
	}
	drain := cfg.Horizon * sim.Time(cfg.DrainFactor)
	if cfg.DrainFactor <= 0 {
		drain = cfg.Horizon * 10
	}
	r := fab.Run(cfg.Horizon+drain, cfg.Telemetry)
	return &FCTResult{
		Scheme:      cfg.Scheme,
		Workload:    cfg.Workload,
		Seed:        cfg.Seed,
		Collector:   r.FCT,
		Completed:   r.FCT.N(),
		Generated:   len(flows),
		OfferedLoad: workload.OfferedLoad(flows, fab.Hosts(), cfg.RateBps, cfg.Horizon),
		PauseFrames: r.PauseFrames,
		Drops:       r.Drops,
		Perf:        r.Perf,
		Telemetry:   r.Telemetry,
	}, nil
}

// RunFCTSweep runs scheme x seed in parallel and merges each scheme's
// collectors across seeds (the paper averages 5 repetitions).
func RunFCTSweep(base FCTConfig, schemes []string, seeds []int64) (map[string]*metrics.FCTCollector, []*FCTResult, error) {
	type job struct {
		scheme string
		seed   int64
	}
	var jobs []job
	for _, s := range schemes {
		for _, sd := range seeds {
			jobs = append(jobs, job{s, sd})
		}
	}
	type out struct {
		r   *FCTResult
		err error
	}
	results := ParallelMap(jobs, 0, func(j job) out {
		cfg := base
		cfg.Scheme = j.scheme
		cfg.Seed = j.seed
		r, err := RunFCT(cfg)
		return out{r, err}
	})
	merged := make(map[string]*metrics.FCTCollector)
	var all []*FCTResult
	for _, o := range results {
		if o.err != nil {
			return nil, nil, o.err
		}
		all = append(all, o.r)
		if merged[o.r.Scheme] == nil {
			merged[o.r.Scheme] = metrics.NewFCTCollector()
		}
		merged[o.r.Scheme].Merge(o.r.Collector)
	}
	return merged, all, nil
}

// SlowdownReduction computes the headline percentages of §5.5: the relative
// reduction of a statistic ("avg"|"median"|"p95"|"p99") for flows in
// (loByte, hiByte], scheme vs baseline. Positive = scheme is better.
func SlowdownReduction(stat string, scheme, baseline *metrics.FCTCollector, loByte, hiByte int64) float64 {
	pick := func(d *metrics.Dist) float64 {
		switch stat {
		case "avg":
			return d.Mean()
		case "median":
			return d.Median()
		case "p95":
			return d.P95()
		case "p99":
			return d.P99()
		default:
			panic("exp: unknown stat " + stat)
		}
	}
	b := pick(baseline.SlowdownDist(loByte, hiByte))
	s := pick(scheme.SlowdownDist(loByte, hiByte))
	if b == 0 {
		return 0
	}
	return 1 - s/b
}
