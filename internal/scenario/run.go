package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Result is one executed scenario: its provenance (normalized spec + hash)
// and a flat scalar metric map that aggregates and exports trivially.
type Result struct {
	Spec    Spec               `json:"spec"`
	Hash    string             `json:"hash"`
	Metrics map[string]float64 `json:"metrics"`
	// Telemetry carries the probe series and event trace when the spec has
	// a telemetry block; nil otherwise. It round-trips through the harness
	// cache with the rest of the result.
	Telemetry *telemetry.Output `json:"telemetry,omitempty"`
	// Cached reports whether the harness served this result from its disk
	// cache instead of simulating.
	Cached bool `json:"-"`
	// FCT holds the per-flow completion records of a flow-set kind, which
	// the per-size-bucket tables (Figs 14/15) are computed from. Like
	// Cached it never reaches the cache: nil for the chain kinds and for
	// any result served from disk.
	FCT *metrics.FCTCollector `json:"-"`
}

// MetricNames returns the result's metric keys sorted.
func (r *Result) MetricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// networkMetrics are the measurements of the simulated network, the numbers
// the figures plot.
var networkMetrics = map[string]bool{
	"queue_peak_bytes": true, "mean_util": true, "pause_frames": true,
	"resume_frames": true, "drops": true, "first_slowdown_us": true,
	"lhcs_triggers": true, "jain_all_active": true, "duration_us": true,
	"completed": true, "generated": true, "offered_load": true,
	"slowdown_avg": true, "slowdown_median": true, "slowdown_p95": true,
	"slowdown_p99": true, "all_done_us": true, "jain_min": true,
	"makespan_us": true, "completed_all": true, "burst_flows": true,
	"notify_latency_us": true,
}

// simulatorMetrics are the simulator measuring itself.
var simulatorMetrics = map[string]bool{
	// Simulator-performance telemetry (exp.PerfStats), attached to every
	// run so sweeps regression-track engine throughput and pool efficiency.
	// The engine/pool rates are deterministic; the wall-clock and
	// allocation counters are host-dependent trend indicators.
	"engine_events": true, "engine_events_per_sec": true,
	"event_reuse_rate": true, "pool_hit_rate": true,
	"mallocs_per_run": true, "alloc_bytes_per_run": true,
	// Fluid-backend incremental-engine telemetry: full vs worklist passes
	// and the affected fraction (links/flows/heap keys touched per event).
	// Deterministic for a given spec, like engine_events.
	"fluid_full_passes": true, "fluid_incremental_passes": true,
	"fluid_links_touched_per_event": true, "fluid_flows_touched_per_event": true,
	"fluid_heap_invalidations_per_event": true,
	// Telemetry bookkeeping, present only when the spec has a telemetry
	// block: probe samples recorded and trace events captured.
	"telemetry_samples": true, "trace_events": true,
	// Parallel-executor telemetry, present only when workers > 1 sharded
	// the run: partition size, worker count, barrier rounds and cross-shard
	// frame deliveries. All deterministic for a given spec.
	"parallel_workers": true, "parallel_shards": true,
	"parallel_windows": true, "cross_shard_messages": true,
}

// knownMetric reports whether any kind can emit the metric; Validate rejects
// Collect entries that none can.
func knownMetric(name string) bool { return networkMetrics[name] || simulatorMetrics[name] }

// SortMetrics orders metric names for display: the simulated network's
// metrics ahead of the simulator's self-measurements, alphabetical within
// each, so a view that only fits the first few shows the figure's numbers.
func SortMetrics(names []string) {
	sort.Slice(names, func(i, j int) bool {
		if si, sj := simulatorMetrics[names[i]], simulatorMetrics[names[j]]; si != sj {
			return sj
		}
		return names[i] < names[j]
	})
}

// perfMetrics folds a runner's PerfStats into the flat metric map.
func perfMetrics(m map[string]float64, p exp.PerfStats) {
	m["engine_events"] = float64(p.Events)
	m["engine_events_per_sec"] = p.EventsPerSec
	m["event_reuse_rate"] = p.EventReuseRate
	m["pool_hit_rate"] = p.PoolHitRate
	m["mallocs_per_run"] = float64(p.Mallocs)
	m["alloc_bytes_per_run"] = float64(p.AllocBytes)
	if p.Shard.Shards > 0 {
		m["parallel_workers"] = float64(p.Shard.Workers)
		m["parallel_shards"] = float64(p.Shard.Shards)
		m["parallel_windows"] = float64(p.Shard.Windows)
		m["cross_shard_messages"] = float64(p.Shard.Messages)
	}
}

// BuildScheme constructs the named scheme with parameter overrides applied.
// Supported keys: alpha, beta, lhcs (0/1), table_update_us for the FNCC
// variants; eta, max_stage, wai_bytes, min_wnd_bytes for FNCC variants and
// HPCC. Other schemes accept no overrides.
func BuildScheme(name string, over map[string]float64) (netsim.Scheme, error) {
	if len(over) == 0 {
		return exp.NewScheme(name)
	}
	switch name {
	case exp.SchemeFNCC, exp.SchemeFNCCNoLHCS:
		cfg := core.DefaultConfig()
		if name == exp.SchemeFNCCNoLHCS {
			cfg.EnableLHCS = false
		}
		for k, v := range over {
			switch k {
			case "alpha":
				cfg.Alpha = v
			case "beta":
				cfg.Beta = v
			case "lhcs":
				cfg.EnableLHCS = v != 0
			case "table_update_us":
				cfg.TableUpdatePeriod = sim.Time(v * float64(sim.Microsecond))
			default:
				if err := applyHPCCOverride(&cfg.HPCC, k, v); err != nil {
					return netsim.Scheme{}, err
				}
			}
		}
		s := core.NewScheme(cfg)
		s.Name = name
		return s, nil
	case exp.SchemeHPCC:
		cfg := cc.DefaultHPCCConfig()
		for k, v := range over {
			if err := applyHPCCOverride(&cfg, k, v); err != nil {
				return netsim.Scheme{}, err
			}
		}
		return cc.NewHPCCScheme(cfg), nil
	default:
		// Reject overrides rather than silently running defaults.
		if _, err := exp.NewScheme(name); err != nil {
			return netsim.Scheme{}, err
		}
		return netsim.Scheme{}, fmt.Errorf("scenario: scheme %q accepts no cc overrides", name)
	}
}

func applyHPCCOverride(cfg *cc.HPCCConfig, k string, v float64) error {
	switch k {
	case "eta":
		cfg.Eta = v
	case "max_stage":
		cfg.MaxStage = int(v)
	case "wai_bytes":
		cfg.WaiBytes = v
	case "min_wnd_bytes":
		cfg.MinWndBytes = v
	default:
		return fmt.Errorf("scenario: unknown cc override %q", k)
	}
	return nil
}

// schemeBuilder adapts a spec's scheme+overrides to the exp injection point.
func schemeBuilder(sp Spec) exp.SchemeBuilder {
	if len(sp.CC) == 0 {
		return nil // let the runner use its registry default
	}
	return func() (netsim.Scheme, error) { return BuildScheme(sp.Scheme, sp.CC) }
}

// Sink observes every executed run. ObserveRun fires once per successful
// simulation — never for cache hits, which don't simulate — with the
// normalized spec, its content hash, and the full metric map *before* any
// Collect filtering, so engine-level stats (engine_events, pool_hit_rate,
// fluid_full_passes, ...) reach the sink even when the spec's Collect list
// strips them from the result. The callback runs synchronously on the
// run's goroutine and must not retain or mutate the map.
//
// This is the hook the harness uses to feed the operational-metrics
// registry (internal/obs); a nil Sink costs one pointer test per run.
type Sink interface {
	ObserveRun(sp Spec, hash string, metrics map[string]float64)
}

// Run validates, normalizes and executes one scenario.
func Run(sp Spec) (*Result, error) { return RunWithSink(sp, nil) }

// RunWithSink is Run with an observer attached; see Sink.
func RunWithSink(sp Spec, sink Sink) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	n := sp.Normalized()
	var (
		m   map[string]float64
		tel *telemetry.Output
		fct *metrics.FCTCollector
		err error
	)
	// The chain figures sample queues and pacing rates through tickers
	// while they run, so they keep their exp runners (incast only on the
	// packet engine: the fluid model has no queue to sample). Every other
	// kind is a flow set on a Fabric.
	switch {
	case n.Kind == KindMicro:
		m, tel, err = runMicro(n)
	case n.Kind == KindHop:
		m, tel, err = runHop(n)
	case n.Kind == KindNotify:
		m, tel, err = runNotify(n)
	case n.Kind == KindFairness:
		m, tel, err = runFairness(n)
	case n.Kind == KindIncast && n.BackendName() == BackendPacket:
		m, tel, err = runIncast(n)
	default:
		m, tel, fct, err = runFlows(n)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s/%s/%s: %w", n.Kind, n.BackendName(), n.Scheme, err)
	}
	if tel != nil {
		m["telemetry_samples"] = float64(tel.Samples)
		m["trace_events"] = float64(tel.TraceTotal)
	}
	hash := n.Hash()
	if sink != nil {
		sink.ObserveRun(n, hash, m)
	}
	if len(n.Collect) > 0 {
		keep := make(map[string]float64, len(n.Collect))
		for _, k := range n.Collect {
			if v, ok := m[k]; ok {
				keep[k] = v
			}
		}
		m = keep
	}
	return &Result{Spec: n, Hash: hash, Metrics: m, Telemetry: tel, FCT: fct}, nil
}

func runMicro(sp Spec) (map[string]float64, *telemetry.Output, error) {
	cfg := exp.DefaultMicroConfig(sp.Scheme, sp.Topo.RateBps())
	cfg.Senders = sp.Topo.Senders
	cfg.Duration = sp.Duration()
	cfg.MakeScheme = schemeBuilder(sp)
	cfg.Telemetry = sp.Telemetry.Config()
	cfg.Workers = sp.Workers
	r, err := exp.RunMicro(cfg)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{
		"queue_peak_bytes":  r.QueuePeak,
		"mean_util":         r.MeanUtil,
		"pause_frames":      float64(r.PauseFrames),
		"resume_frames":     float64(r.ResumeFrames),
		"drops":             float64(r.Drops),
		"first_slowdown_us": timeUs(r.FirstSlowdown),
	}
	perfMetrics(m, r.Perf)
	return m, r.Telemetry, nil
}

// hopConfig is the chain with the second flow colliding at sp.Hop, shared by
// the hop study and the notification measurement.
func hopConfig(sp Spec) exp.HopConfig {
	cfg := exp.DefaultHopConfig(sp.Scheme, exp.HopPosition(sp.Hop))
	cfg.RateBps = sp.Topo.RateBps()
	cfg.Duration = sp.Duration()
	cfg.MakeScheme = schemeBuilder(sp)
	cfg.Telemetry = sp.Telemetry.Config()
	cfg.Workers = sp.Workers
	return cfg
}

func runHop(sp Spec) (map[string]float64, *telemetry.Output, error) {
	r, err := exp.RunHop(hopConfig(sp))
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{
		"queue_peak_bytes": r.QueuePeak,
		"mean_util":        r.MeanUtil,
		"lhcs_triggers":    float64(r.LHCSTriggers),
	}
	perfMetrics(m, r.Perf)
	return m, r.Telemetry, nil
}

// runNotify quantifies Fig 2/Fig 12's theoretical model: with congestion
// placed at the spec's hop, how long after onset (the second flow's start)
// does the victim sender first drop below 85% of line rate? -1 if it never
// reacted.
func runNotify(sp Spec) (map[string]float64, *telemetry.Output, error) {
	cfg := hopConfig(sp)
	cfg.Flow1Stop = false // persistent congestion for a clean onset edge
	cfg.SampleEvery = 200 * sim.Nanosecond
	r, err := exp.RunHop(cfg)
	if err != nil {
		return nil, nil, err
	}
	lat := sim.Time(-1)
	threshold := 0.85 * float64(cfg.RateBps)
	for _, p := range r.Rates[0].Points {
		if p.T >= cfg.Flow1Start && p.V < threshold {
			lat = p.T - cfg.Flow1Start
			break
		}
	}
	m := map[string]float64{"notify_latency_us": timeUs(lat)}
	perfMetrics(m, r.Perf)
	return m, r.Telemetry, nil
}

func runFairness(sp Spec) (map[string]float64, *telemetry.Output, error) {
	cfg := exp.DefaultFairnessConfig(sp.Scheme)
	cfg.Senders = sp.Topo.Senders
	cfg.RateBps = sp.Topo.RateBps()
	cfg.Stagger = sim.Time(sp.Workload.StaggerUs) * sim.Microsecond
	cfg.MakeScheme = schemeBuilder(sp)
	cfg.Telemetry = sp.Telemetry.Config()
	cfg.Workers = sp.Workers
	r, err := exp.RunFairness(cfg)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{
		"jain_all_active": r.JainAllActive,
		"duration_us":     timeUs(r.Duration),
	}
	perfMetrics(m, r.Perf)
	return m, r.Telemetry, nil
}

func runIncast(sp Spec) (map[string]float64, *telemetry.Output, error) {
	cfg := exp.DefaultIncastConfig(sp.Scheme)
	cfg.Fanout = sp.Workload.Fanout
	cfg.BytesPerSender = sp.Workload.FlowBytes
	cfg.RateBps = sp.Topo.RateBps()
	cfg.Deadline = sp.Duration()
	cfg.MakeScheme = schemeBuilder(sp)
	cfg.Telemetry = sp.Telemetry.Config()
	cfg.Workers = sp.Workers
	r, err := exp.RunIncast(cfg)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{
		"queue_peak_bytes": float64(r.QueuePeak),
		"pause_frames":     float64(r.PauseFrames),
		"all_done_us":      timeUs(r.AllDoneAt),
		"jain_min":         r.JainFinalRates,
		"lhcs_triggers":    float64(r.LHCSTriggers),
	}
	perfMetrics(m, r.Perf)
	return m, r.Telemetry, nil
}

// PoolFCT merges each scheme's flow records across results — the paper
// averages its repetitions by pooling the seeds — and lists the schemes in
// order of first appearance. A result without records is an error: a chain
// kind has none, and the harness cache stores only the metric map.
func PoolFCT(results []*Result) (map[string]*metrics.FCTCollector, []string, error) {
	merged := map[string]*metrics.FCTCollector{}
	var order []string
	for _, r := range results {
		if r.FCT == nil {
			return nil, nil, fmt.Errorf("scenario: %s/%s result %s carries no flow records (cached, or not a flow-set kind)",
				r.Spec.Kind, r.Spec.Scheme, r.Hash)
		}
		if merged[r.Spec.Scheme] == nil {
			merged[r.Spec.Scheme] = metrics.NewFCTCollector()
			order = append(order, r.Spec.Scheme)
		}
		merged[r.Spec.Scheme].Merge(r.FCT)
	}
	return merged, order, nil
}

// slowdownMetrics folds a collector's whole-range slowdown distribution into
// the metric map.
func slowdownMetrics(m map[string]float64, col *metrics.FCTCollector) {
	d := col.SlowdownDist(0, math.MaxInt64)
	if d.N() == 0 {
		return
	}
	m["slowdown_avg"] = d.Mean()
	m["slowdown_median"] = d.Median()
	m["slowdown_p95"] = d.P95()
	m["slowdown_p99"] = d.P99()
}

// timeUs renders a simulation time in microseconds, passing through the -1
// "never" sentinel.
func timeUs(t sim.Time) float64 {
	if t < 0 {
		return -1
	}
	return float64(t) / float64(sim.Microsecond)
}
