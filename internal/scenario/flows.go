package scenario

// Every kind is "offer a set of flows to a fabric and run to a deadline":
// buildFabric builds the fabric the spec's kind and engine run on,
// buildFlowSet writes the flows of all kinds, and runFlows offers them, runs
// once and folds the metrics. Both backends see the same flows with the same
// IDs — which drive ECMP placement — by construction, so a fluid point is the
// fast companion of the packet point with the same spec hash modulo the
// backend field. A chain figure is the same run on the packet chain under a
// telemetry Watch on the port and flows the figure reads, whose rows fold
// into its metrics.

import (
	"slices"

	"repro/internal/exp"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// buildFabric constructs the spec's fabric on the spec's engine from one
// fabric description: on packet, the chain of chainOpts or a fat-tree with
// the (possibly overridden) scheme installed; on fluid, the same chain or
// fat-tree under the scheme's rate-convergence model.
func buildFabric(sp Spec, a *Arena) (exp.Fabric, error) {
	ft := topo.FatTreeOpts{
		K: sp.Topo.K, RateBps: sp.Topo.RateBps(),
		CoreRateBps: sp.Topo.CoreRateBps(), Delay: sp.Topo.Delay(),
		Workers: sp.Workers,
	}
	chain := sp.Topo.Kind == "chain"
	if sp.BackendName() != BackendFluid {
		scheme, err := BuildScheme(sp.Scheme, sp.CC)
		switch {
		case err != nil:
			return nil, err
		case chain:
			return exp.NewPacketChain(&a.net, scheme, netsim.DefaultConfig(), chainOpts(sp))
		}
		return exp.NewPacketFatTree(&a.net, scheme, sp.Seed, ft)
	}
	var (
		fb  *fluid.Fabric
		err error
	)
	if chain {
		fb, err = fluid.NewChain(fluid.DefaultConfig(), chainOpts(sp))
	} else {
		fb, err = fluid.NewFatTree(fluid.DefaultConfig(), ft)
	}
	if err != nil {
		return nil, err
	}
	// The per-scheme calibration by default, or the explicit fluid_tau_rtts
	// cc override (0 = idealized instant max-min).
	if v, ok := sp.CC[FluidSchemeCCKey]; ok {
		return exp.NewFluid(&a.fluid, fb, fluid.Model{Tau: sim.Time(v * float64(fb.BaseRTT))}), nil
	}
	model, err := fluid.ModelFor(sp.Scheme, fb.BaseRTT)
	if err != nil {
		return nil, err
	}
	return exp.NewFluid(&a.fluid, fb, model), nil
}

// chainOpts is the chain a chain kind runs on.
func chainOpts(sp Spec) topo.ChainOpts {
	return topo.ChainOpts{
		Switches: sp.Topo.Switches, SenderAttach: chainAttach(sp),
		RateBps: sp.Topo.RateBps(), Delay: sp.Topo.Delay(), Workers: sp.Workers,
	}
}

// chainAttach places a chain kind's senders: all on the first switch (the
// Fig 10 dumbbell), the second flow joining at the spec's hop (Fig 11), or —
// incast — every sender behind the last-hop switch.
func chainAttach(sp Spec) []int {
	last := sp.Topo.Switches - 1
	switch sp.Kind {
	case KindIncast:
		attach := make([]int, sp.Workload.Fanout)
		for i := range attach {
			attach[i] = last
		}
		return attach
	case KindHop, KindNotify:
		return []int{0, map[string]int{"first": 0, "middle": last / 2, "last": last}[sp.Hop]}
	}
	return make([]int, sp.Topo.Senders)
}

// The chain figures' traffic (§5.1, §5.4): line-rate elephants that outlast
// any window, the later ones joining 300 us apart; the hop study's joiner is
// finite (~150 us at 100 G) so the congestion clears by ~450 us (Fig 13d).
const (
	elephantBytes  = 1 << 40
	chainJoin      = 300 * sim.Microsecond
	hopJoinerBytes = 1_800_000
)

// buildFlowSet writes the spec's flows over hosts endpoints, IDs sequential
// from 1, into dst's array. poisson is how many leading flows came from the
// open-loop generator (fct, and the background of mixed): offered load is
// defined over those alone.
func buildFlowSet(sp Spec, hosts int, dst []workload.FlowSpec) (flows []workload.FlowSpec, poisson int, err error) {
	w := sp.Workload
	flows = dst[:0]
	add := func(src, dst int, size int64, start sim.Time) {
		flows = append(flows, workload.FlowSpec{ID: uint64(len(flows) + 1),
			SrcHost: src, DstHost: dst, SizeBytes: size, Start: start})
	}
	switch sp.Kind {
	case KindMicro:
		for i := 0; i < hosts-1; i++ {
			add(i, hosts-1, elephantBytes, sim.Time(i)*chainJoin)
		}
	case KindHop, KindNotify:
		// Notify keeps the congestion persistent for a clean onset edge.
		joiner := int64(hopJoinerBytes)
		if sp.Kind == KindNotify {
			joiner = elephantBytes
		}
		add(0, hosts-1, elephantBytes, 0)
		add(1, hosts-1, joiner, chainJoin)
	case KindFairness:
		// Fig 13e: a sender joins every stagger, then — all joined — they
		// exit in joining order, each sized to its fair share of that
		// schedule. The paper staggers by 100 ms; the stair-step convergence
		// to B/k at every membership change is invariant to it as long as a
		// stagger spans many RTTs.
		n, stagger := hosts-1, sim.Time(w.StaggerUs)*sim.Microsecond
		for i := 0; i < n; i++ {
			add(i, hosts-1, exp.FairShareBytes(n, i, stagger, sp.Topo.RateBps()), sim.Time(i)*stagger)
		}
	case KindFCT, KindMixed:
		cdf, _ := workload.ByName(w.CDF) // Validate checked the name
		horizon := sp.Duration()
		flows, err = workload.AppendFlows(flows, workload.GenConfig{
			Hosts:     hosts,
			AccessBps: sp.Topo.RateBps(),
			Load:      sp.Load,
			CDF:       cdf,
			Horizon:   horizon,
			Seed:      sp.Seed,
			FirstID:   1,
		})
		poisson = len(flows)
		if sp.Kind == KindMixed {
			// Periodic Fanout-to-1 incast bursts over the Poisson background,
			// the composite pattern production fabrics actually see:
			// responders 1..Fanout all answer host 0 at once, every period.
			period := sim.Time(w.BurstEveryUs) * sim.Microsecond
			for t := period; t < horizon; t += period {
				for r := 1; r <= w.Fanout; r++ {
					add(r, 0, w.FlowBytes, t)
				}
			}
		}
	case KindPermutation:
		// One flow per host to the host Shift away (default hosts/2, i.e.
		// always cross-pod on a fat-tree): an admissible pattern — every
		// host sends and receives exactly once — that exercises every tier
		// of the fabric simultaneously.
		shift := w.Shift
		if shift == 0 {
			shift = hosts / 2
		}
		flows = slices.Grow(flows, hosts)
		for i := 0; i < hosts; i++ {
			add(i, (i+shift)%hosts, w.FlowBytes, 0)
		}
	case KindAllToAll:
		// The shuffle: every host sends to every other host, all starting
		// at t=0. Each host simultaneously fans out to and receives from
		// hosts-1 peers, the worst admissible stress the fabric supports.
		flows = slices.Grow(flows, hosts*(hosts-1))
		for src := 0; src < hosts; src++ {
			for dst := 0; dst < hosts; dst++ {
				if dst != src {
					add(src, dst, w.FlowBytes, 0)
				}
			}
		}
	case KindIncast:
		// Fanout senders, one flow each into the chain's receiver.
		flows = slices.Grow(flows, w.Fanout)
		for i := 0; i < w.Fanout; i++ {
			add(i, hosts-1, w.FlowBytes, 0)
		}
	}
	return flows, poisson, err
}

// Flows is the flow set a run of sp offers its fabric, in offer order: the
// flows buildFlowSet writes over the spec's host count, which is the count
// of the fabric the run builds.
func Flows(sp Spec) ([]workload.FlowSpec, error) {
	n, err := sp.Normalize()
	if err != nil {
		return nil, err
	}
	flows, _, err := buildFlowSet(n.s, n.s.hosts(), nil)
	return flows, err
}

// offerFlowSet writes the spec's flows into a's flow array and offers them to
// fab in order. a.flows holds them until the run is over (Norm.onArena).
func offerFlowSet(sp Spec, fab exp.Fabric, a *Arena) (flows []workload.FlowSpec, poisson int, err error) {
	flows, poisson, err = buildFlowSet(sp, fab.Hosts(), a.flows)
	a.flows = flows
	if err != nil {
		return nil, 0, err
	}
	for _, fs := range flows {
		if err := fab.AddFlow(fs); err != nil {
			return nil, 0, err
		}
	}
	return flows, poisson, nil
}

// makespan is when the last completed flow finished.
func makespan(col *metrics.FCTCollector) sim.Time {
	var last sim.Time
	for _, r := range col.Records {
		if r.Finish > last {
			last = r.Finish
		}
	}
	return last
}

// runFlows executes a spec of any kind on any engine: its flow set offered
// to the fabric buildFabric builds, one Run to the kind's deadline, and the
// metrics the kind and the engine produce. On the packet chain the run
// carries the figure's Watch, whose reductions are the figure's metrics
// beside the counters it reads off the fabric, and the result carries no
// flow records.
func runFlows(sp Spec, a *Arena) (map[string]float64, *telemetry.Output, *metrics.FCTCollector, error) {
	fab, err := buildFabric(sp, a)
	if err != nil {
		return nil, nil, nil, err
	}
	flows, poisson, err := offerFlowSet(sp, fab, a)
	if err != nil {
		return nil, nil, nil, err
	}
	openLoop := rowOf(sp.Kind).free.has(knobLoad)
	deadline := sp.Duration()
	switch {
	case openLoop:
		deadline *= 11 // the duration is the arrival horizon; drain for 10x more
	case sp.Kind == KindFairness:
		// Every sender joins, then leaves, one stagger apart.
		deadline = sim.Time(2*sp.Topo.Senders) * sim.Time(sp.Workload.StaggerUs) * sim.Microsecond
	}
	pc, figure := fab.(*exp.PacketChain)
	if figure {
		// Window figures watch the drained fabric up to the deadline, a
		// burst runs to its last completion.
		pc.Watch, pc.Hold = figureWatch(sp, pc), sp.Kind != KindIncast
	}
	res := fab.Run(deadline, sp.Telemetry.Config())

	m := map[string]float64{}
	switch {
	case figure:
		for _, r := range pc.Watch.Reductions {
			m[r.Metric] = r.Value
		}
		// The counters the figure reads off the fabric after the run.
		sw := pc.Chain.Switches
		switch sp.Kind {
		case KindMicro:
			m["pause_frames"] = float64(sw[0].PauseFrames)
			m["resume_frames"] = float64(sw[0].ResumeFrames)
			m["drops"] = float64(res.Drops)
		case KindHop:
			m["lhcs_triggers"] = float64(lhcsTriggers(pc.Flows[0]))
		case KindFairness:
			m["duration_us"] = timeUs(deadline)
		case KindIncast:
			m["pause_frames"], m["lhcs_triggers"] = float64(sw[len(sw)-1].PauseFrames), 0
			for _, f := range pc.Flows {
				m["lhcs_triggers"] += float64(lhcsTriggers(f))
			}
		}
	case sp.Kind == KindIncast:
		// The fluid receiver access link is the single bottleneck and
		// max-min shares it equally, so jain_min is 1 by construction
		// (reported for table parity).
		m["jain_min"] = 1
	default:
		m["completed"] = float64(res.FCT.N())
		m["generated"] = float64(len(flows))
		slowdownMetrics(m, res.FCT)
	}
	if sp.Kind == KindIncast {
		m["all_done_us"] = -1
		if res.Done {
			m["all_done_us"] = timeUs(makespan(res.FCT))
		}
	}
	if openLoop {
		m["offered_load"] = workload.OfferedLoad(flows[:poisson], fab.Hosts(), sp.Topo.RateBps(), sp.Duration())
	}
	if in(sp.Kind, KindPermutation, KindAllToAll, KindMixed) {
		m["completed_all"] = 0
		if res.Done {
			m["completed_all"] = 1
		}
		m["makespan_us"] = timeUs(makespan(res.FCT))
	}
	if sp.Kind == KindMixed {
		m["burst_flows"] = float64(len(flows) - poisson)
	}
	if sp.BackendName() == BackendFluid {
		fluidPerfMetrics(m, res.Fluid)
	} else {
		if !figure {
			m["pause_frames"] = float64(res.PauseFrames)
			m["drops"] = float64(res.Drops)
		}
		perfMetrics(m, res.Perf)
	}
	if figure {
		return m, res.Telemetry, nil, nil
	}
	return m, res.Telemetry, res.FCT, nil
}

// figureWatch is the telemetry Watch a chain figure folds its metrics from:
// the port and flows it reads, sampled at the figure's interval, and the
// reductions that turn the rows into metrics.
func figureWatch(sp Spec, pc *exp.PacketChain) telemetry.Watch {
	c, n := pc.Chain, len(pc.Flows)
	switch sp.Kind {
	case KindIncast:
		// The last-hop egress every burst lands on (§3.2.2) and, once
		// control is in effect (after the first RTT), Jain's index over the
		// pacing rates while every sender is still active, kept at its
		// minimum: the worst observed unfairness.
		return telemetry.Watch{Interval: 5 * sim.Microsecond, Port: c.Switches[len(c.Switches)-1].PortAt(1),
			Flows: pc.Flows, Active: true,
			Reductions: []telemetry.Reduction{
				{Metric: "queue_peak_bytes", Reduce: telemetry.ReduceMax, N: 1},
				{Metric: "jain_min", Reduce: telemetry.ReduceMinJain, Col: 2, N: n + 1, From: c.Net.Cfg.BaseRTT}}}
	case KindFairness:
		// Every flow's goodput, Jain's index averaged over the stagger in
		// which all of them overlap.
		stagger := sim.Time(sp.Workload.StaggerUs) * sim.Microsecond
		return telemetry.Watch{Interval: 20 * sim.Microsecond, Flows: pc.Flows, Goodput: true,
			Reductions: []telemetry.Reduction{{Metric: "jain_all_active", Reduce: telemetry.ReduceMeanJain,
				N: n, From: sim.Time(n-1) * stagger, To: sim.Time(n) * stagger}}}
	}
	// micro (Figs 1b-d/3/9), hop (Fig 13a-d) and notify (Fig 2/12: how
	// long after the onset does the victim first drop below 85% of line
	// rate?) watch the egress the joining flow collides on and the first
	// flow's pacing rate.
	w := telemetry.Watch{Interval: sim.Microsecond, Port: c.HopPort(c.Opts.SenderAttach[1]), Flows: pc.Flows[:1],
		Reductions: []telemetry.Reduction{
			{Metric: "queue_peak_bytes", Reduce: telemetry.ReduceMax, N: 1},
			{Metric: "mean_util", Reduce: telemetry.ReduceMean, Col: 1, N: 1, From: chainJoin},
			{Metric: "first_slowdown_us", Reduce: telemetry.ReduceFirstBelow, Col: 2, N: 1, From: chainJoin,
				Below: 0.85 * float64(c.Opts.RateBps)}}}
	switch sp.Kind {
	case KindHop:
		w.Reductions = w.Reductions[:2]
	case KindNotify:
		w.Interval = 200 * sim.Nanosecond
		w.Reductions = w.Reductions[2:]
		w.Reductions[0].Metric, w.Reductions[0].Reduce = "notify_latency_us", telemetry.ReduceDelayBelow
	}
	return w
}

// lhcsTriggers is how often Algorithm 2 fired on an FNCC sender (zero for
// every other scheme).
func lhcsTriggers(f *netsim.Flow) int64 {
	if c, ok := f.CC().(interface{ LHCSCount() int64 }); ok {
		return c.LHCSCount()
	}
	return 0
}

// fluidPerfMetrics is the fluid analog of perfMetrics: events here are rate
// recomputations, not packet events, which is exactly why the backend is
// fast — reported under the same key so sweeps compare event counts.
// The fluid_* columns expose the incremental engine's affected-fraction
// telemetry: how much of the fabric each event actually touched, and how
// often the worklist overran into a global pass.
func fluidPerfMetrics(m map[string]float64, st fluid.Stats) {
	m["engine_events"] = float64(st.Events)
	m["fluid_full_passes"] = float64(st.Recomputes)
	m["fluid_incremental_passes"] = float64(st.IncrementalPasses)
	if st.Events > 0 {
		ev := float64(st.Events)
		m["fluid_links_touched_per_event"] = float64(st.LinksTouched) / ev
		m["fluid_flows_touched_per_event"] = float64(st.FlowsTouched) / ev
		m["fluid_heap_invalidations_per_event"] = float64(st.HeapInvalidations) / ev
	}
}
