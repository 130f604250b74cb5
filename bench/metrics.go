package main

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator pays per simulated result, on
// every workload.
//
// An "event" is one engine_events count of the results of one repeat (packet
// or fluid events): the seed changes how many events a spec simulates (±25 %
// on the heavy-tailed websearch points), and per event the times hold across
// seeds. Allocations are mostly per fabric and per flow, so they are steadier
// per repeat than per event.
//
// "norm" is host time scaled by the host's speed while the repeat ran, as
// the calibrator in measure.go reads it: this sandbox drifts by ±20 % over
// minutes and more in bursts, which put the raw times' spread over ten runs
// at 0.15-0.39 in a bad hour; scaled, it was 0.06-0.15 in the same runs. The
// raw times are printed beside them.
//
// The bounds are the widest allowed because a metric's spread over ten seeds
// must stay inside its bound; the guards that repeat exactly are the digests
// and the per-layer counts.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "norm_wall_ns_per_event", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "norm_cpu_ns_per_event", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "allocs", Unit: "count", Better: "lower", Bound: 0.25},
}

// cpuLayers are the internal packages whose leaf-frame CPU share the traced
// run reports; anything else folds into runtime.other_cpu_share.
var cpuLayers = []string{"sim", "netsim", "packet", "cc", "core", "topo", "workload", "metrics",
	"exp", "scenario", "fluid", "harness", "sweepd", "telemetry", "obs"}

// perLayer lists the traced run's metrics, named <module>.<metric>. Every
// workload prints all of them; one whose layer does no work on a workload
// (or that only one workload measures) reads 0 there.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, l := range cpuLayers {
		add("lower", "ratio", l+".cpu_share")
	}
	add("lower", "ratio", "runtime.gc_cpu_share", "runtime.other_cpu_share")
	add("lower", "count", "runtime.gc_cycles")

	add("lower", "count", "sim.events")
	add("higher", "ratio", "sim.reuse_rate")
	add("lower", "ns", "sim.schedule_fire_ns", "sim.cancel_ns")

	add("lower", "s", "netsim.run_s", "netsim.inject_s")
	add("lower", "ns", "netsim.ns_per_event", "netsim.onehop_ns_per_frame")
	add("lower", "count", "netsim.pause_frames", "netsim.drops")
	add("higher", "ratio", "netsim.shard_speedup")
	add("lower", "ratio", "netsim.shard_cpu_per_wall")
	add("lower", "count", "netsim.shard_windows", "netsim.shard_messages")
	add("higher", "count", "netsim.shard_events_per_window")

	add("higher", "ratio", "packet.pool_hit_rate")
	add("lower", "count", "packet.pool_gets")
	add("lower", "ns", "packet.get_put_ns")

	add("lower", "s", "topo.build_fattree_s", "topo.build_chain_s")
	add("higher", "count", "topo.hosts", "topo.switches")
	add("lower", "s", "workload.generate_s")
	add("higher", "count", "workload.flows")
	add("lower", "s", "metrics.summarize_s")
	add("higher", "count", "metrics.records")
	add("lower", "s", "exp.scheme_build_s")
	add("lower", "ratio", "exp.envelope_ratio")
	add("lower", "us", "scenario.validate_hash_us")

	add("lower", "s", "fluid.build_s", "fluid.inject_s", "fluid.run_s",
		"fluid.websearch_k16_s", "fluid.hadoop_k8_s", "fluid.permutation_k32_s")
	add("lower", "count", "fluid.events")
	add("lower", "us", "fluid.us_per_event")
	add("lower", "ratio", "fluid.full_pass_share")
	add("lower", "count", "fluid.links_touched_per_event", "fluid.flows_touched_per_event",
		"fluid.heap_invalidations_per_event")
	add("lower", "ratio", "fluid.model_err")

	add("lower", "s", "harness.cold_pass_s", "harness.warm_pass_s", "harness.expand_s", "harness.export_s")
	add("lower", "us", "harness.store_us_per_point", "harness.load_us_per_point")
	add("higher", "count", "harness.cache_hits")
	add("lower", "count", "harness.cache_misses", "harness.coalesced")

	add("lower", "s", "sweepd.submit_s", "sweepd.first_point_s", "sweepd.stream_s", "sweepd.served_pass_s")
	add("lower", "ratio", "sweepd.envelope_ratio")

	add("lower", "ratio", "telemetry.overhead_ratio")
	add("higher", "count", "telemetry.samples")
	add("lower", "ratio", "obs.overhead_ratio")
	add("higher", "count", "obs.spans")

	add("lower", "ratio", "bench.trace_overhead_ratio")
	add("lower", "s", "bench.wall_s", "bench.cpu_s")
	add("lower", "count", "bench.events")
	add("lower", "MB", "bench.peak_rss_mb")
	return d
}()
