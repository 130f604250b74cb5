package main

import (
	"fmt"
	"math"

	"repro/internal/exp"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// stagedFCT is the traced twin of scenario.Run for an FCT spec without cc
// overrides or telemetry: it makes the same public calls in the same order
// as exp.RunFCT (packet) or scenario's fluid FCT runner, with a span around
// each, and rebuilds the same metric map — so its digest must equal
// scenario.Run's, which the traced run and the tests check. The counters the
// layers export are added to tr as raw sums.
func stagedFCT(sp scenario.Spec, tr *tracer, parent int) (map[string]float64, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	n := sp.Normalized()
	if n.Kind != scenario.KindFCT || len(n.CC) > 0 || n.Telemetry != nil {
		return nil, fmt.Errorf("staged mirror covers plain fct specs only, got %s", n.Kind)
	}
	if n.BackendName() == scenario.BackendFluid {
		return stagedFluid(n, tr, parent)
	}
	return stagedPacket(n, tr, parent)
}

func stagedPacket(n scenario.Spec, tr *tracer, parent int) (map[string]float64, error) {
	id := tr.begin("exp.NewScheme", parent)
	scheme, err := exp.NewScheme(n.Scheme)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	cdf, ok := workload.ByName(n.Workload.CDF)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", n.Workload.CDF)
	}

	id = tr.begin("topo.BuildFatTree", parent)
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = n.Seed
	ft, err := topo.BuildFatTree(ncfg, scheme, topo.FatTreeOpts{K: n.Topo.K, RateBps: n.Topo.RateBps(),
		CoreRateBps: n.Topo.CoreRateBps(), Delay: 1500 * sim.Nanosecond, Workers: n.Workers})
	tr.end(id)
	if err != nil {
		return nil, err
	}

	horizon := n.Duration()
	id = tr.begin("workload.Generate", parent)
	flows, err := workload.Generate(workload.GenConfig{Hosts: len(ft.Hosts), AccessBps: n.Topo.RateBps(),
		Load: n.Load, CDF: cdf, Horizon: horizon, Seed: n.Seed, FirstID: 1})
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("FatTree.AddFlow", parent)
	for _, fs := range flows {
		ft.AddFlow(fs.ID, fs.SrcHost, fs.DstHost, fs.SizeBytes, fs.Start)
	}
	tr.end(id)

	id = tr.begin("Network.RunToCompletion", parent)
	ft.Net.RunToCompletion(horizon * 11) // horizon + 10x drain, as exp.RunFCT
	tr.end(id)

	m := map[string]float64{
		"completed":    float64(ft.Net.FCT.N()),
		"generated":    float64(len(flows)),
		"offered_load": workload.OfferedLoad(flows, len(ft.Hosts), n.Topo.RateBps(), horizon),
		"pause_frames": float64(ft.Net.PauseFrames.N),
		"drops":        float64(ft.Net.Drops.N),
	}
	id = tr.begin("FCTCollector.SlowdownDist", parent)
	slowdowns(m, ft.Net.FCT)
	tr.end(id)

	es, ps, ss := ft.Net.TotalEngineStats(), ft.Net.TotalPoolStats(), ft.Net.ShardStats()
	m["engine_events"] = float64(es.Processed)
	m["event_reuse_rate"] = es.ReuseRate()
	m["pool_hit_rate"] = ps.HitRate()
	if ss.Shards > 0 {
		m["parallel_workers"] = float64(ss.Workers)
		m["parallel_shards"] = float64(ss.Shards)
		m["parallel_windows"] = float64(ss.Windows)
		m["cross_shard_messages"] = float64(ss.Messages)
	}
	tr.add("sim.events", float64(es.Processed))
	tr.add("sim.scheduled", float64(es.Scheduled))
	tr.add("sim.slot_reuses", float64(es.SlotReuses))
	tr.add("packet.pool_gets", float64(ps.Gets))
	tr.add("packet.pool_news", float64(ps.News))
	tr.add("netsim.shard_windows", float64(ss.Windows))
	tr.add("netsim.shard_messages", float64(ss.Messages))
	tr.add("netsim.pause_frames", m["pause_frames"])
	tr.add("netsim.drops", m["drops"])
	tr.add("workload.flows", float64(len(flows)))
	tr.add("metrics.records", float64(ft.Net.FCT.N()))
	tr.add("topo.hosts", float64(len(ft.Hosts)))
	tr.add("topo.switches", float64(len(ft.Edge)+len(ft.Agg)+len(ft.Core)))
	return m, nil
}

func stagedFluid(n scenario.Spec, tr *tracer, parent int) (map[string]float64, error) {
	id := tr.begin("fluid.NewFatTree", parent)
	fb, err := fluid.NewFatTree(fluid.DefaultConfig(), fluid.FatTreeOpts{K: n.Topo.K, RateBps: n.Topo.RateBps(),
		CoreRateBps: n.Topo.CoreRateBps(), Delay: n.Topo.Delay()})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	model, err := fluid.ModelFor(n.Scheme, fb.BaseRTT)
	if err != nil {
		return nil, err
	}
	cdf, ok := workload.ByName(n.Workload.CDF)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", n.Workload.CDF)
	}
	horizon := n.Duration()
	id = tr.begin("workload.Generate", parent)
	flows, err := workload.Generate(workload.GenConfig{Hosts: fb.Hosts, AccessBps: n.Topo.RateBps(),
		Load: n.Load, CDF: cdf, Horizon: horizon, Seed: n.Seed, FirstID: 1})
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("fluid.NewSim", parent)
	s := fluid.NewSim(fb, model)
	tr.end(id)
	id = tr.begin("Sim.AddFlow", parent)
	for _, fs := range flows {
		if _, err := s.AddFlow(fs.ID, fs.SrcHost, fs.DstHost, fs.SizeBytes, fs.Start); err != nil {
			tr.end(id)
			return nil, err
		}
	}
	tr.end(id)

	id = tr.begin("Sim.Run", parent)
	res := s.Run(horizon * 11)
	tr.end(id)

	m := map[string]float64{
		"completed":    float64(res.Completed),
		"generated":    float64(res.Generated),
		"offered_load": workload.OfferedLoad(flows, fb.Hosts, n.Topo.RateBps(), horizon),
	}
	id = tr.begin("FCTCollector.SlowdownDist", parent)
	slowdowns(m, res.FCT)
	tr.end(id)

	st := res.Stats
	m["engine_events"] = float64(st.Events)
	m["fluid_full_passes"] = float64(st.Recomputes)
	m["fluid_incremental_passes"] = float64(st.IncrementalPasses)
	if st.Events > 0 {
		ev := float64(st.Events)
		m["fluid_links_touched_per_event"] = float64(st.LinksTouched) / ev
		m["fluid_flows_touched_per_event"] = float64(st.FlowsTouched) / ev
		m["fluid_heap_invalidations_per_event"] = float64(st.HeapInvalidations) / ev
	}
	tr.add("fluid.events", float64(st.Events))
	tr.add("fluid.full_passes", float64(st.Recomputes))
	tr.add("fluid.links_touched", float64(st.LinksTouched))
	tr.add("fluid.flows_touched", float64(st.FlowsTouched))
	tr.add("fluid.heap_invalidations", float64(st.HeapInvalidations))
	tr.add("workload.flows", float64(len(flows)))
	tr.add("metrics.records", float64(res.FCT.N()))
	tr.add("topo.hosts", float64(fb.Hosts))
	return m, nil
}

// slowdowns folds the whole-range slowdown distribution into m the way
// scenario does.
func slowdowns(m map[string]float64, col *metrics.FCTCollector) {
	d := col.SlowdownDist(0, math.MaxInt64)
	if d.N() == 0 {
		return
	}
	m["slowdown_avg"] = d.Mean()
	m["slowdown_median"] = d.Median()
	m["slowdown_p95"] = d.P95()
	m["slowdown_p99"] = d.P99()
}
