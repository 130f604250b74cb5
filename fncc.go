// Package fncc is the public facade of the FNCC reproduction: a
// packet-level data-center network simulator with four congestion-control
// schemes (FNCC, HPCC, DCQCN, RoCC), the paper's topologies (dumbbell
// chains and k-ary fat-trees), trace-driven workloads (WebSearch,
// FB_Hadoop), and one declarative scenario kind per evaluation figure.
//
// # Quick start
//
//	scheme := fncc.MustScheme(fncc.SchemeFNCC)
//	chain := fncc.MustChain(fncc.DefaultNetConfig(), scheme, fncc.DefaultChainOpts(2))
//	f0 := chain.AddFlow(1, 0, 1<<30, 0)
//	f1 := chain.AddFlow(2, 1, 1<<30, 300*fncc.Microsecond)
//	chain.Net.RunUntil(1200 * fncc.Microsecond)
//
// See examples/ for runnable programs and DESIGN.md for the map from the
// paper's figures to scenario kinds (RunScenario, cmd/fnccbench).
package fncc

import (
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fluid"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweepd"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Time units re-exported from the simulation clock.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Time is a simulation timestamp/duration in picoseconds.
type Time = sim.Time

// Core simulation types.
type (
	// Network is the built fabric: engine, nodes, flows, counters.
	Network = netsim.Network
	// NetConfig is the fabric-wide configuration (MTU, PFC, ECMP mode...).
	NetConfig = netsim.Config
	// Scheme bundles one congestion-control algorithm's three plug points.
	Scheme = netsim.Scheme
	// Flow is one RDMA-style transfer.
	Flow = netsim.Flow
	// Host is an end station; Switch a fabric switch; Port an attachment.
	Host   = netsim.Host
	Switch = netsim.Switch
	Port   = netsim.Port
)

// Topology builders.
type (
	// Chain is the Fig 10/11 dumbbell-chain topology.
	Chain = topo.Chain
	// ChainOpts parameterizes BuildChain.
	ChainOpts = topo.ChainOpts
	// FatTree is the §5.5 k-ary fat-tree.
	FatTree = topo.FatTree
	// FatTreeOpts parameterizes BuildFatTree.
	FatTreeOpts = topo.FatTreeOpts
	// Mesh is an arbitrary switch graph with spanning-tree symmetric
	// routing (Observation 2 / Fig 6).
	Mesh = topo.Mesh
	// MeshOpts parameterizes BuildMesh.
	MeshOpts = topo.MeshOpts
)

// Hot-path performance telemetry. The simulation core is allocation-free in
// steady state: events recycle through an engine-owned slot pool and frames
// through a per-network packet pool. These counters quantify both, and
// every scenario result and sweep row carries them (engine_events,
// pool_hit_rate, mallocs_per_run...), so perf regressions show up in the
// same tables as the modelled metrics.
type (
	// EngineStats is the event scheduler's throughput/pool telemetry.
	EngineStats = sim.EngineStats
	// PacketPoolStats is the packet pool's hit-rate telemetry.
	PacketPoolStats = packet.PoolStats
)

// Metrics types surfaced by the runners.
type (
	// Series is a time series of samples.
	Series = metrics.Series
	// Dist is an exact scalar distribution (quantiles).
	Dist = metrics.Dist
	// FCTCollector accumulates flow completions.
	FCTCollector = metrics.FCTCollector
	// BucketStats is one row of a Fig 14/15 slowdown table.
	BucketStats = metrics.BucketStats
)

// Scheme names accepted by NewScheme/MustScheme.
const (
	SchemeFNCC       = exp.SchemeFNCC
	SchemeFNCCNoLHCS = exp.SchemeFNCCNoLHCS
	SchemeHPCC       = exp.SchemeHPCC
	SchemeDCQCN      = exp.SchemeDCQCN
	SchemeRoCC       = exp.SchemeRoCC
)

// DefaultNetConfig returns the paper's §5 fabric constants (1518 B MTU,
// PFC at 500 KB, symmetric ECMP, per-packet ACKs).
func DefaultNetConfig() NetConfig { return netsim.DefaultConfig() }

// NewScheme builds a congestion-control scheme by name with paper-default
// parameters.
func NewScheme(name string) (Scheme, error) { return exp.NewScheme(name) }

// MustScheme is NewScheme that panics on unknown names.
func MustScheme(name string) Scheme { return exp.MustScheme(name) }

// AllSchemes lists the four compared schemes in canonical order.
func AllSchemes() []string { return exp.AllSchemes() }

// FNCCConfig exposes the contribution's tuning knobs (α, β, LHCS toggle,
// All_INT_Table refresh) for custom schemes.
type FNCCConfig = core.Config

// DefaultFNCCConfig returns the paper's FNCC constants.
func DefaultFNCCConfig() FNCCConfig { return core.DefaultConfig() }

// NewFNCCScheme builds FNCC with custom parameters.
func NewFNCCScheme(cfg FNCCConfig) Scheme { return core.NewScheme(cfg) }

// HPCCConfig exposes the HPCC baseline's constants.
type HPCCConfig = cc.HPCCConfig

// NewHPCCScheme builds HPCC with custom parameters.
func NewHPCCScheme(cfg HPCCConfig) Scheme { return cc.NewHPCCScheme(cfg) }

// DefaultChainOpts returns the Fig 10 dumbbell (M=3 switches, given sender
// count, 100 G links, 1.5 us delay).
func DefaultChainOpts(senders int) ChainOpts { return topo.DefaultChainOpts(senders) }

// BuildChain constructs a chain topology.
func BuildChain(cfg NetConfig, s Scheme, o ChainOpts) (*Chain, error) {
	return topo.BuildChain(cfg, s, o)
}

// MustChain is BuildChain that panics on error.
func MustChain(cfg NetConfig, s Scheme, o ChainOpts) *Chain { return topo.MustChain(cfg, s, o) }

// DefaultFatTreeOpts returns the §5.5 fabric (k=8, 128 hosts, 100 G).
func DefaultFatTreeOpts() FatTreeOpts { return topo.DefaultFatTreeOpts() }

// BuildFatTree constructs a fat-tree.
func BuildFatTree(cfg NetConfig, s Scheme, o FatTreeOpts) (*FatTree, error) {
	return topo.BuildFatTree(cfg, s, o)
}

// MustFatTree is BuildFatTree that panics on error.
func MustFatTree(cfg NetConfig, s Scheme, o FatTreeOpts) *FatTree {
	return topo.MustFatTree(cfg, s, o)
}

// Fig6Opts returns the paper's Fig 6-style multi-path mesh example.
func Fig6Opts() MeshOpts { return topo.Fig6Opts() }

// BuildMesh constructs an arbitrary mesh with spanning-tree routing.
func BuildMesh(cfg NetConfig, s Scheme, o MeshOpts) (*Mesh, error) {
	return topo.BuildMesh(cfg, s, o)
}

// MustMesh is BuildMesh that panics on error.
func MustMesh(cfg NetConfig, s Scheme, o MeshOpts) *Mesh { return topo.MustMesh(cfg, s, o) }

// Workload distributions.
var (
	// WebSearch returns the DCTCP web-search flow-size CDF (Fig 14).
	WebSearch = workload.WebSearch
	// FBHadoop returns the Facebook Hadoop flow-size CDF (Fig 15).
	FBHadoop = workload.FBHadoop
)

// Declarative scenarios and the sweep harness (cmd/fnccbench drives these
// from the command line; see DESIGN.md's scenario index).
type (
	// Scenario is a JSON-serializable experiment description with a
	// canonical encoding and stable content hash.
	Scenario = scenario.Spec
	// ScenarioTopo declares a scenario's fabric.
	ScenarioTopo = scenario.TopoSpec
	// ScenarioWorkload declares a scenario's offered traffic.
	ScenarioWorkload = scenario.WorkloadSpec
	// ScenarioResult is one executed scenario's flat metric map (plus, for
	// flow-set kinds, the per-flow records behind the Figs 14/15 tables).
	ScenarioResult = scenario.Result
	// ScenarioEntry is a named registry scenario.
	ScenarioEntry = scenario.Entry
	// Sweep is a base scenario plus a grid over schemes/seeds/loads/sizes.
	Sweep = harness.Sweep
	// SweepGrid is the sweep dimensions.
	SweepGrid = harness.Grid
	// SweepRunner executes specs in parallel with a disk result cache.
	SweepRunner = harness.Runner
	// SweepRow is one exported result line.
	SweepRow = harness.Row
	// SweepServer is the long-running HTTP sweep service over a
	// SweepRunner (fnccbench serve); SweepServerConfig assembles one.
	SweepServer       = sweepd.Server
	SweepServerConfig = sweepd.Config
	// SweepPoint is one streamed result on the server's NDJSON stream;
	// SweepStatus one sweep's live summary.
	SweepPoint  = sweepd.Point
	SweepStatus = sweepd.Status
)

// NewSweepServer builds a sweep service and starts its worker pool; serve
// its Handler() and stop it with Drain.
var NewSweepServer = sweepd.New

// Scenario and sweep entry points.
var (
	// RunScenario validates and executes one declarative scenario.
	RunScenario = scenario.Run
	// ParseScenario decodes a JSON spec, rejecting unknown fields.
	ParseScenario = scenario.ParseSpec
	// BuiltinScenarios lists the registry sorted by name.
	BuiltinScenarios = scenario.Builtin
	// LookupScenario resolves a registry name.
	LookupScenario = scenario.Lookup
	// ScenarioKinds lists the runnable scenario kinds.
	ScenarioKinds = scenario.Kinds
	// BuildCCScheme constructs a scheme with parameter overrides applied.
	BuildCCScheme = scenario.BuildScheme
	// PoolFCT merges each scheme's flow records across results (seeds);
	// FormatFCTTables renders the Fig 14/15 per-size-bucket slowdown
	// tables from the pooled records and FormatHeadlines the §5.5 headline
	// reductions.
	PoolFCT         = scenario.PoolFCT
	FormatFCTTables = exp.FormatFCTTables
	FormatHeadlines = exp.FormatHeadlines
	// SweepRows flattens results for export; AggregateRows averages them
	// across seeds; WriteSweepCSV / WriteSweepJSON serialize them.
	SweepRows      = harness.Rows
	AggregateRows  = harness.Aggregate
	WriteSweepCSV  = harness.WriteCSV
	WriteSweepJSON = harness.WriteJSON
)

// Simulation backends a Scenario can select (Scenario.Backend): the full
// per-packet engine, or the flow-level max-min fluid approximation for
// FCT-style kinds (internal/fluid; orders of magnitude faster per point).
const (
	BackendPacket = scenario.BackendPacket
	BackendFluid  = scenario.BackendFluid
)

// Backends lists the simulation backends.
var Backends = scenario.Backends

// Flow-level fluid backend, usable directly (without the scenario layer)
// for custom flow sets on chain or fat-tree fabrics.
type (
	// FluidConfig carries the wire-format constants shared with netsim.
	FluidConfig = fluid.Config
	// FluidModel is a scheme's rate-convergence behavior (Tau=0: instant
	// max-min).
	FluidModel = fluid.Model
	// FluidFabric is a capacitated link graph with flow routing.
	FluidFabric = fluid.Fabric
	// FluidChainOpts parameterizes NewFluidChain (mirrors ChainOpts).
	FluidChainOpts = fluid.ChainOpts
	// FluidFatTreeOpts parameterizes NewFluidFatTree (mirrors FatTreeOpts).
	FluidFatTreeOpts = fluid.FatTreeOpts
	// FluidSim runs a flow set over a fabric under a model.
	FluidSim = fluid.Sim
	// FluidResult is one fluid run: FCT collector plus engine telemetry.
	FluidResult = fluid.Result
)

// Fluid-backend entry points.
var (
	DefaultFluidConfig = fluid.DefaultConfig
	NewFluidSim        = fluid.NewSim
	FluidModelFor      = fluid.ModelFor
	NewFluidChain      = fluid.NewChain
	NewFluidFatTree    = fluid.NewFatTree
)

// In-simulation telemetry: time-series probes over either backend plus an
// opt-in bounded event trace, zero-cost when off (see DESIGN.md
// "Telemetry"). Scenarios opt in via ScenarioTelemetry; direct simulations
// attach probes with AttachNetProbe / AttachFluidProbe.
type (
	// TelemetryConfig selects probe classes, sampling interval, trace cap.
	TelemetryConfig = telemetry.Config
	// TelemetryOutput is one run's recorded series + trace.
	TelemetryOutput = telemetry.Output
	// TelemetrySeries is one named probe series.
	TelemetrySeries = telemetry.Series
	// TelemetryTraceRecord is one flight-recorder event.
	TelemetryTraceRecord = telemetry.TraceRecord
	// NetProbe samples a packet-backend Network; FluidProbe a fluid Sim.
	NetProbe   = telemetry.NetProbe
	FluidProbe = telemetry.FluidProbe
	// ScenarioTelemetry is a Scenario's telemetry block.
	ScenarioTelemetry = scenario.TelemetrySpec
	// SweepProgress is one live progress snapshot from SweepRunner.
	SweepProgress = harness.Progress
)

// Telemetry entry points.
var (
	AttachNetProbe   = telemetry.AttachNet
	AttachFluidProbe = telemetry.AttachFluid
	// PacketProbes / FluidProbes / AllProbes list the probe classes per
	// backend; TelemetrySamples sizes a ring for a span and interval.
	PacketProbes     = telemetry.PacketProbes
	FluidProbes      = telemetry.FluidProbes
	AllProbes        = telemetry.AllProbes
	TelemetrySamples = telemetry.Samples
	// WriteTraceJSONL serializes a trace; ExportTelemetry writes a
	// result's series/trace to a directory as JSON + CSV + JSONL.
	WriteTraceJSONL = telemetry.WriteTraceJSONL
	ExportTelemetry = harness.ExportTelemetry
)

// Extension baselines (paper §6 related work; not part of the paper's
// evaluation): Timely (RTT gradient), Swift (delay target) and ExpressPass
// (receiver-driven credits).
const (
	SchemeTimely      = exp.SchemeTimely
	SchemeSwift       = exp.SchemeSwift
	SchemeExpressPass = exp.SchemeExpressPass
)
