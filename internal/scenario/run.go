package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cc"
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

// ccOverride is one cc override: the values it may hold, the config field it
// sets and the packet schemes that take it. A value outside the range would
// run another algorithm under the scheme's name (eta <= 0, a negative additive
// step), reach a float-to-int conversion the Go spec leaves to the machine
// (max_stage, table_update_us past int64 picoseconds), or mint a second hash
// for one run (max_stage 2.5 runs as 2).
type ccOverride struct {
	ok   func(v float64) bool
	want string // the range ok accepts, for the error
	// set writes the value into an FNCC config, whose HPCC part is also
	// HPCC's. schemes is who reads the field: alpha and beta only LHCS,
	// which FNCC-noLHCS never installs, and table_update_us only the FNCC
	// switches. Both are nil for the fluid backend's key, which no packet
	// scheme takes.
	set     func(*core.Config, float64)
	schemes []string
}

func positive(v float64) bool    { return v > 0 }
func nonNegative(v float64) bool { return v >= 0 }

// maxTableUpdateUs is the largest table_update_us that fits in int64
// picoseconds.
const maxTableUpdateUs = math.MaxInt64 / int64(sim.Microsecond)

var (
	hpccAndFNCC = []string{exp.SchemeFNCC, exp.SchemeFNCCNoLHCS, exp.SchemeHPCC}
	bothFNCC    = []string{exp.SchemeFNCC, exp.SchemeFNCCNoLHCS}
	lhcs        = []string{exp.SchemeFNCC}
)

// ccOverrides is every cc override a spec may carry, keyed by name. The
// LHCS ablation is a scheme, FNCC-noLHCS, not a key.
var ccOverrides = map[string]ccOverride{
	"eta": {ok: func(v float64) bool { return v > 0 && v <= 1 }, want: "in (0, 1]", schemes: hpccAndFNCC,
		set: func(c *core.Config, v float64) { c.HPCC.Eta = v }},
	"max_stage": {ok: func(v float64) bool { return v >= 0 && v <= 1e6 && v == math.Trunc(v) },
		want: "a whole number in [0, 1e6]", schemes: hpccAndFNCC,
		set: func(c *core.Config, v float64) { c.HPCC.MaxStage = int(v) }},
	"wai_bytes": {ok: nonNegative, want: ">= 0", schemes: hpccAndFNCC,
		set: func(c *core.Config, v float64) { c.HPCC.WaiBytes = v }},
	"min_wnd_bytes": {ok: positive, want: "> 0", schemes: hpccAndFNCC,
		set: func(c *core.Config, v float64) { c.HPCC.MinWndBytes = v }},
	"alpha": {ok: positive, want: "> 0", schemes: lhcs, set: func(c *core.Config, v float64) { c.Alpha = v }},
	"beta":  {ok: positive, want: "> 0", schemes: lhcs, set: func(c *core.Config, v float64) { c.Beta = v }},
	"table_update_us": {ok: func(v float64) bool { return v >= 0 && v <= float64(maxTableUpdateUs) },
		want: fmt.Sprintf("in [0, %d]", maxTableUpdateUs), schemes: bothFNCC,
		set: func(c *core.Config, v float64) { c.TableUpdatePeriod = sim.Time(v * float64(sim.Microsecond)) }},
	FluidSchemeCCKey: {ok: nonNegative, want: ">= 0"},
}

// takes reports whether the scheme reads cc key k on the backend ("" is
// packet): on packet, the schemes its ccOverrides entry lists; on fluid,
// fluid_tau_rtts alone, on a scheme with a convergence model.
func takes(scheme, backend, k string) bool {
	switch backend {
	case "":
		return slices.Contains(ccOverrides[k].schemes, scheme)
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

// BuildScheme constructs the named scheme with cc overrides applied. A key
// the scheme does not take (takes) is refused rather than silently run at
// its default.
func BuildScheme(name string, over map[string]float64) (netsim.Scheme, error) {
	if len(over) == 0 {
		return exp.NewScheme(name)
	}
	if err := checkScheme(name, over); err != nil {
		return netsim.Scheme{}, err
	}
	cfg := core.DefaultConfig()
	cfg.EnableLHCS = name != exp.SchemeFNCCNoLHCS
	for k, v := range over {
		ccOverrides[k].set(&cfg, v)
	}
	if name == exp.SchemeHPCC {
		return cc.NewHPCCScheme(cfg.HPCC), nil
	}
	s := core.NewScheme(cfg)
	s.Name = name
	return s, nil
}

// checkScheme is BuildScheme's refusal without the build: name is a
// registry scheme that takes every key of over.
func checkScheme(name string, over map[string]float64) error {
	if err := exp.CheckScheme(name); err != nil {
		return err
	}
	for k := range over {
		if takes(name, "", k) {
			continue
		}
		keys := ccKeys(name)
		if len(keys) == 0 {
			return fmt.Errorf("scenario: scheme %q accepts no cc overrides", name)
		}
		return fmt.Errorf("scenario: scheme %q takes no cc override %q (have %v)", name, k, keys)
	}
	return nil
}

// ccKeys lists, sorted, the cc overrides the packet scheme takes.
func ccKeys(scheme string) []string {
	var out []string
	for k := range ccOverrides {
		if takes(scheme, "", k) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
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
func (n Norm) Run() (*Result, error) {
	sp := n.s
	var (
		m   map[string]float64
		tel *telemetry.Output
		fct *metrics.FCTCollector
		err error
	)
	// A chain figure folds what a sampler sees inside the packet chain
	// (the fluid model has no queue to sample, so fluid incast is a flow
	// set like every other kind).
	if sp.Topo.Kind == "chain" && sp.BackendName() == BackendPacket {
		m, tel, err = runChain(sp)
	} else {
		m, tel, fct, err = runFlows(sp)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s/%s/%s: %w", sp.Kind, sp.BackendName(), sp.Scheme, err)
	}
	if tel != nil {
		m["telemetry_samples"] = float64(tel.Samples)
		m["trace_events"] = float64(tel.TraceTotal)
	}
	return &Result{Spec: sp, Hash: n.Hash(), Metrics: m, Telemetry: tel, FCT: fct}, nil
}

// runChain executes a chain figure: the kind's flow set on the packet chain,
// a sampler that folds the figure's numbers while the run goes — running
// maxima and in-order sums, so nothing is stored per sample; the time series
// themselves come from telemetry probes — and the metric map. The window
// figures run to their deadline, incast to its last completion.
func runChain(sp Spec) (map[string]float64, *telemetry.Output, error) {
	fab, err := buildChain(sp)
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := offerFlowSet(sp, fab); err != nil {
		return nil, nil, err
	}
	deadline := sp.Duration()
	var fold func(exp.FlowsResult) map[string]float64
	switch sp.Kind {
	case KindIncast:
		fold = watchIncast(fab)
	case KindFairness:
		stagger := sim.Time(sp.Workload.StaggerUs) * sim.Microsecond
		deadline = sim.Time(2*sp.Topo.Senders) * stagger
		fab.HoldToDeadline()
		fold = watchFairness(fab, stagger, deadline)
	default:
		fab.HoldToDeadline()
		fold = watchJoin(sp, fab)
	}
	res := fab.Run(deadline, sp.Telemetry.Config())
	m := fold(res)
	perfMetrics(m, res.Perf)
	return m, res.Telemetry, nil
}

// watchJoin samples the egress the joining flow collides on and the first
// flow's pacing rate; micro (Figs 1b-d/3/9), hop (Fig 13a-d) and notify
// (Fig 2/12: how long after the onset does the victim first drop below 85% of
// line rate?) are this one observer read three ways.
func watchJoin(sp Spec, fab *exp.PacketChain) func(exp.FlowsResult) map[string]float64 {
	c, victim := fab.Chain, fab.Flows[0]
	port := c.HopPort(c.Opts.SenderAttach[1])
	period := sim.Microsecond
	if sp.Kind == KindNotify {
		period = 200 * sim.Nanosecond
	}
	winBits := float64(c.Opts.RateBps) * period.Seconds()
	threshold := 0.85 * float64(c.Opts.RateBps)
	var (
		lastTx        uint64
		peak, utilSum float64
		utilN         int
		slowAt        = sim.Time(-1)
	)
	fab.Sample(period, func(now sim.Time) {
		if q := float64(port.QueueBytes()); q > peak {
			peak = q
		}
		tx := port.TxBytes()
		if now >= chainJoin {
			utilSum += float64(tx-lastTx) * 8 / winBits
			utilN++
			if slowAt < 0 && float64(victim.CC().RateBps()) < threshold {
				slowAt = now
			}
		}
		lastTx = tx
	})
	return func(res exp.FlowsResult) map[string]float64 {
		if sp.Kind == KindNotify {
			lat := slowAt
			if lat >= 0 {
				lat -= chainJoin
			}
			return map[string]float64{"notify_latency_us": timeUs(lat)}
		}
		m := map[string]float64{"queue_peak_bytes": peak, "mean_util": meanOf(utilSum, utilN)}
		if sp.Kind == KindHop {
			m["lhcs_triggers"] = float64(lhcsTriggers(victim))
			return m
		}
		m["pause_frames"] = float64(c.Switches[0].PauseFrames)
		m["resume_frames"] = float64(c.Switches[0].ResumeFrames)
		m["drops"] = float64(res.Drops)
		m["first_slowdown_us"] = timeUs(slowAt)
		return m
	}
}

// watchFairness samples every flow's goodput (acked bits per window) and
// averages Jain's index over the stagger in which all of them overlap.
func watchFairness(fab *exp.PacketChain, stagger, dur sim.Time) func(exp.FlowsResult) map[string]float64 {
	const period = 20 * sim.Microsecond
	n, win := len(fab.Flows), period.Seconds()
	allFrom, allTo := sim.Time(n-1)*stagger, sim.Time(n)*stagger
	lastAcked, goodput := make([]int64, n), make([]float64, n)
	var (
		jainSum float64
		jainN   int
	)
	fab.Sample(period, func(now sim.Time) {
		for i, f := range fab.Flows {
			acked := f.SndUna()
			goodput[i] = float64(acked-lastAcked[i]) * 8 / win
			lastAcked[i] = acked
		}
		if now >= allFrom && now < allTo {
			jainSum += metrics.JainIndex(goodput)
			jainN++
		}
	})
	return func(exp.FlowsResult) map[string]float64 {
		return map[string]float64{"jain_all_active": meanOf(jainSum, jainN), "duration_us": timeUs(dur)}
	}
}

// watchIncast samples the last-hop egress every burst lands on (§3.2.2) and,
// once control is in effect (after the first RTT), Jain's index over the
// pacing rates while every sender is still active, kept at its minimum: the
// worst observed unfairness.
func watchIncast(fab *exp.PacketChain) func(exp.FlowsResult) map[string]float64 {
	c := fab.Chain
	last := c.Switches[len(c.Switches)-1]
	port, baseRTT := last.PortAt(1), c.Net.Cfg.BaseRTT
	rates := make([]float64, 0, len(fab.Flows))
	var peak int64
	jainMin := 1.0
	fab.Sample(5*sim.Microsecond, func(now sim.Time) {
		if q := port.QueueBytes(); q > peak {
			peak = q
		}
		if now < baseRTT {
			return
		}
		rates = rates[:0]
		for _, f := range fab.Flows {
			if !f.Finished() {
				rates = append(rates, float64(f.CC().RateBps()))
			}
		}
		if len(rates) == len(fab.Flows) {
			if j := metrics.JainIndex(rates); j < jainMin {
				jainMin = j
			}
		}
	})
	return func(res exp.FlowsResult) map[string]float64 {
		allDone, lhcs := sim.Time(-1), int64(0)
		if res.Done {
			allDone = makespan(res.FCT)
		}
		for _, f := range fab.Flows {
			lhcs += lhcsTriggers(f)
		}
		return map[string]float64{
			"queue_peak_bytes": float64(peak),
			"pause_frames":     float64(last.PauseFrames),
			"all_done_us":      timeUs(allDone),
			"jain_min":         jainMin,
			"lhcs_triggers":    float64(lhcs),
		}
	}
}

// meanOf is sum/n, and 0 over no samples.
func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// lhcsTriggers is how often Algorithm 2 fired on an FNCC sender (zero for
// every other scheme).
func lhcsTriggers(f *netsim.Flow) int64 {
	if c, ok := f.CC().(interface{ LHCSCount() int64 }); ok {
		return c.LHCSCount()
	}
	return 0
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
