package exp

import (
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Fabric is the seam between a flow set and the engine that carries it:
// offer flows by host index, run to a deadline, read back completions. Both
// engines sit behind it, so "packet and fluid see the same flows" is the
// shape of the calling code rather than a promise between twin runners, and
// anything that wraps a run (impairments, audits) has one place to do it.
type Fabric interface {
	// Hosts is the number of flow endpoints, indexed 0..Hosts()-1.
	Hosts() int
	// AddFlow offers one flow. The ID picks the ECMP path on both engines.
	AddFlow(workload.FlowSpec) error
	// Run executes until every flow finishes or the deadline passes. tel,
	// when non-nil, attaches the engine's probes for the run (after every
	// AddFlow: the probes snapshot the flow set). Call once: it gives the
	// fabric's storage back, and nothing it returns shares any of it.
	Run(deadline sim.Time, tel *telemetry.Config) FlowsResult
}

// FlowsResult is one run's outcome on either engine.
type FlowsResult struct {
	// FCT holds the completed flows; both engines fill it from the same
	// ideal-FCT model, so slowdowns compare directly.
	FCT *metrics.FCTCollector
	// Done reports whether every offered flow finished before the deadline.
	Done bool
	// PauseFrames, Drops and Perf are the packet engine's fabric counters
	// and simulator telemetry; the fluid model has no queues to count.
	PauseFrames int64
	Drops       int64
	Perf        PerfStats
	// Fluid is the fluid engine's telemetry (zero on the packet engine).
	Fluid fluid.Stats
	// Telemetry is the probe output (nil unless configured).
	Telemetry *telemetry.Output
}

// PerfStats is one packet run's simulator telemetry: the engine's event count,
// the efficiency of the event and packet pools, and the sharded executor's
// summary. Every field is deterministic for a given run, like the simulated
// metrics beside it; what the run cost the host (wall, CPU, allocated bytes)
// is measured around it, on the harness's simulate span.
type PerfStats struct {
	// Events is the number of simulation events the engine fired.
	Events uint64
	// EventReuseRate is the engine slot-pool hit rate (≈1 in steady state).
	EventReuseRate float64
	// PoolHitRate is the packet-pool hit rate (≈1 in steady state).
	PoolHitRate float64
	// Shard summarizes the parallel packet executor when the run was
	// sharded; Shard.Shards == 0 for serial runs. Windows and Messages are
	// deterministic for a given topology partition, like Events.
	Shard netsim.ShardStats
}

type packetFatTree struct{ ft *topo.FatTree }

// NewPacketFatTree builds a packet-level fat-tree on st with scheme installed
// and seed threaded into fabric randomness.
func NewPacketFatTree(st *netsim.Storage, scheme netsim.Scheme, seed int64, opts topo.FatTreeOpts) (Fabric, error) {
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = seed
	ft, err := topo.BuildFatTreeOn(st, ncfg, scheme, opts)
	if err != nil {
		return nil, err
	}
	return &packetFatTree{ft: ft}, nil
}

func (p *packetFatTree) Hosts() int { return len(p.ft.Hosts) }

func (p *packetFatTree) AddFlow(fs workload.FlowSpec) error {
	p.ft.AddFlow(fs.ID, fs.SrcHost, fs.DstHost, fs.SizeBytes, fs.Start)
	return nil
}

func (p *packetFatTree) Run(deadline sim.Time, tel *telemetry.Config) FlowsResult {
	net := p.ft.Net
	tp := telemetry.AttachNet(net, tel, deadline)
	done := net.RunToCompletion(deadline)
	return packetResult(net, done, tp)
}

// packetResult closes a packet run: completions, fabric, engine and pool
// counters off the network and the probe's output, and then it ends the run:
// every packet fabric finishes here, so this is where the network's storage
// goes back for the next point of the sweep (Network.Release). The network
// must not be run again afterwards.
func packetResult(net *netsim.Network, done bool, tp *telemetry.NetProbe) FlowsResult {
	es, ps := net.TotalEngineStats(), net.TotalPoolStats()
	res := FlowsResult{
		FCT:         net.FCT,
		Done:        done,
		PauseFrames: net.PauseFrames.N,
		Drops:       net.Drops.N,
		Telemetry:   probeOutput(tp),
		Perf: PerfStats{Events: es.Processed, EventReuseRate: es.ReuseRate(),
			PoolHitRate: ps.HitRate(), Shard: net.ShardStats()},
	}
	net.Release()
	return res
}

// probeOutput stops a probe and extracts its output (nil-safe).
func probeOutput(tp *telemetry.NetProbe) *telemetry.Output {
	if tp == nil {
		return nil
	}
	tp.Stop()
	return tp.Output()
}

type fluidFabric struct{ s *fluid.Sim }

// NewFluid carries flows over fb under the flow-level max-min model, on st.
func NewFluid(st *fluid.Storage, fb *fluid.Fabric, model fluid.Model) Fabric {
	return fluidFabric{fluid.NewSimOn(st, fb, model)}
}

func (f fluidFabric) Hosts() int { return f.s.Fabric().Hosts }

func (f fluidFabric) AddFlow(fs workload.FlowSpec) error {
	_, err := f.s.AddFlow(fs.ID, fs.SrcHost, fs.DstHost, fs.SizeBytes, fs.Start)
	return err
}

func (f fluidFabric) Run(deadline sim.Time, tel *telemetry.Config) FlowsResult {
	tp := telemetry.AttachFluid(f.s, tel, deadline)
	r := f.s.Run(deadline)
	res := FlowsResult{FCT: r.FCT, Done: r.Completed == r.Generated, Fluid: r.Stats}
	if tp != nil {
		res.Telemetry = tp.Output()
	}
	f.s.Release() // as packetResult: the run is over and read
	return res
}
