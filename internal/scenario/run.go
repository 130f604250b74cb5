package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fluid"
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
	// a telemetry block; nil otherwise. It never reaches the cache: the
	// spec reproduces it, so the harness re-simulates a telemetry run.
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

// simulatorMetrics are the simulator measuring itself. Like the network's
// metrics they are a pure function of the spec: what a run cost the host is
// on the harness's simulate span, never in a result.
var simulatorMetrics = map[string]bool{
	// Engine and pool counters (exp.PerfStats), attached to every packet
	// run: events fired and the slot- and packet-pool hit rates.
	"engine_events": true, "event_reuse_rate": true, "pool_hit_rate": true,
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

// SimulatedDiff returns the first key, in name order, on which two metric
// maps of one spec disagree about the simulated network: a key outside
// simulatorMetrics that only one map holds, or whose values differ in their
// bits. "" means they agree. The simulator's self-measurements may differ:
// telemetry's probe ticks are engine events of their own.
func SimulatedDiff(a, b map[string]float64) string {
	first, found := "", false
	check := func(x, y map[string]float64) {
		for k, v := range x {
			if simulatorMetrics[k] || found && k >= first {
				continue
			}
			if w, ok := y[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				first, found = k, true
			}
		}
	}
	check(a, b)
	check(b, a)
	return first
}

// perfMetrics folds a packet run's PerfStats into the flat metric map.
func perfMetrics(m map[string]float64, p exp.PerfStats) {
	m["engine_events"] = float64(p.Events)
	m["event_reuse_rate"] = p.EventReuseRate
	m["pool_hit_rate"] = p.PoolHitRate
	if p.Shard.Shards > 0 {
		m["parallel_workers"] = float64(p.Shard.Workers)
		m["parallel_shards"] = float64(p.Shard.Shards)
		m["parallel_windows"] = float64(p.Shard.Windows)
		m["cross_shard_messages"] = float64(p.Shard.Messages)
	}
}

// ccOverride is one cc override: the values it may hold and the config field
// it sets. Which packet schemes read it is their exp row's Keys. A value
// outside the range would run another algorithm under the scheme's name (eta
// <= 0, a negative additive step), reach a float-to-int conversion the Go
// spec leaves to the machine (max_stage, table_update_us past int64
// picoseconds), or mint a second hash for one run (max_stage 2.5 runs as 2).
type ccOverride struct {
	ok   func(v float64) bool
	want string // the range ok accepts, for the error
	// set writes the value into the core.Config every exp row builds from;
	// nil for the fluid backend's key, which no packet scheme reads.
	set func(*core.Config, float64)
}

func positive(v float64) bool    { return v > 0 }
func nonNegative(v float64) bool { return v >= 0 }

// maxTableUpdateUs is the largest table_update_us that fits in int64
// picoseconds.
const maxTableUpdateUs = math.MaxInt64 / int64(sim.Microsecond)

// ccOverrides is every cc override a spec may carry, keyed by name. The
// LHCS ablation is a scheme, FNCC-noLHCS, not a key.
var ccOverrides = map[string]ccOverride{
	"eta": {ok: func(v float64) bool { return v > 0 && v <= 1 }, want: "in (0, 1]",
		set: func(c *core.Config, v float64) { c.HPCC.Eta = v }},
	"max_stage": {ok: func(v float64) bool { return v >= 0 && v <= 1e6 && v == math.Trunc(v) },
		want: "a whole number in [0, 1e6]", set: func(c *core.Config, v float64) { c.HPCC.MaxStage = int(v) }},
	"wai_bytes":     {ok: nonNegative, want: ">= 0", set: func(c *core.Config, v float64) { c.HPCC.WaiBytes = v }},
	"min_wnd_bytes": {ok: positive, want: "> 0", set: func(c *core.Config, v float64) { c.HPCC.MinWndBytes = v }},
	"alpha":         {ok: positive, want: "> 0", set: func(c *core.Config, v float64) { c.Alpha = v }},
	"beta":          {ok: positive, want: "> 0", set: func(c *core.Config, v float64) { c.Beta = v }},
	"table_update_us": {ok: func(v float64) bool { return v >= 0 && v <= float64(maxTableUpdateUs) },
		want: fmt.Sprintf("in [0, %d]", maxTableUpdateUs),
		set:  func(c *core.Config, v float64) { c.TableUpdatePeriod = sim.Time(v * float64(sim.Microsecond)) }},
	FluidSchemeCCKey: {ok: nonNegative, want: ">= 0"},
}

// takes reports whether the scheme reads cc key k on the backend ("" is
// packet): on packet, the keys its exp row lists; on fluid, fluid_tau_rtts
// alone, on a scheme with a convergence model.
func takes(scheme, backend, k string) bool {
	switch backend {
	case "":
		r, err := exp.Row(scheme)
		return err == nil && slices.Contains(r.Keys, k)
	case BackendFluid:
		_, model := fluid.TauRTTs[scheme]
		return model && k == FluidSchemeCCKey
	}
	return false
}

// atDefault reports whether cc key k = v runs the scheme's default on the
// backend: the scheme takes the key, v is in its range, and applying it
// leaves the default config (on packet) or the scheme's convergence time
// constant (on fluid) unchanged. This is the one place that decides whether
// a spelling is the default; normalizeCC drops such a key.
func atDefault(scheme, backend, k string, v float64) bool {
	o := ccOverrides[k]
	switch {
	case !takes(scheme, backend, k) || !o.ok(v):
		return false
	case backend == BackendFluid:
		return v == fluid.TauRTTs[scheme]
	}
	c := core.DefaultConfig()
	o.set(&c, v)
	return c == core.DefaultConfig()
}

// BuildScheme constructs the named scheme through its exp row, with the cc
// overrides applied to the default config. A key the scheme does not read
// is refused rather than silently run at its default.
func BuildScheme(name string, over map[string]float64) (netsim.Scheme, error) {
	r, err := schemeRow(name, over)
	if err != nil {
		return netsim.Scheme{}, err
	}
	cfg := core.DefaultConfig()
	for k, v := range over {
		ccOverrides[k].set(&cfg, v)
	}
	return r.Build(cfg), nil
}

// schemeRow is BuildScheme's refusal without the build: name's exp row,
// which must list every key of over.
func schemeRow(name string, over map[string]float64) (*exp.SchemeRow, error) {
	r, err := exp.Row(name)
	if err != nil {
		return nil, err
	}
	for k := range over {
		switch {
		case slices.Contains(r.Keys, k):
		case len(r.Keys) == 0:
			return nil, fmt.Errorf("scenario: scheme %q accepts no cc overrides", name)
		default:
			return nil, fmt.Errorf("scenario: scheme %q takes no cc override %q (have %v)", name, k, r.Keys)
		}
	}
	return r, nil
}

// Run validates, normalizes and executes one scenario: Normalize, then
// Norm.Run.
func Run(sp Spec) (*Result, error) {
	n, err := sp.Normalize()
	if err != nil {
		return nil, err
	}
	return n.Run()
}

// Run executes the scenario. Its metric map is a pure function of the spec:
// every key the kind and engine produce, and none that depends on the host.
// The run's storage comes from the WithArena option's arena, or else from
// the lone-run pool, and goes back to it before Run returns.
func (n Norm) Run(opts ...RunOption) (*Result, error) {
	for _, o := range opts {
		if o.arena != nil {
			return n.onArena(o.arena)
		}
	}
	a := loneArenas.Get().(*Arena)
	res, err := n.onArena(a) // a panic leaves a to the collector
	loneArenas.Put(a)
	return res, err
}

// run executes the scenario on a.
func (n Norm) run(a *Arena) (*Result, error) {
	sp := n.s
	m, tel, fct, err := runFlows(sp, a)
	if err != nil {
		return nil, fmt.Errorf("scenario %s/%s/%s: %w", sp.Kind, sp.BackendName(), sp.Scheme, err)
	}
	if tel != nil {
		m["telemetry_samples"] = float64(tel.Samples)
		m["trace_events"] = float64(tel.TraceTotal)
	}
	return &Result{Spec: sp, Hash: n.Hash(), Metrics: m, Telemetry: tel, FCT: fct}, nil
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
