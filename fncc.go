// Package fncc is the public facade of the FNCC reproduction: a
// packet-level data-center network simulator with four congestion-control
// schemes (FNCC, HPCC, DCQCN, RoCC), the paper's topologies (dumbbell
// chains and k-ary fat-trees), trace-driven workloads (WebSearch,
// FB_Hadoop), and one declarative scenario kind per evaluation figure.
//
// The facade is deliberately small: it re-exports what the programs under
// examples/, the runnable documentation and the root tests and benchmarks
// use (TestFacadeExportsAreUsed holds it to that), in two groups — building
// a fabric by hand, and running a declarative Scenario. Everything else
// (the fluid backend, telemetry probes, the sweep server) is reached through
// a Scenario's fields or through cmd/fnccbench.
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
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Time is a simulation timestamp/duration in picoseconds.
type Time = sim.Time

// Time units re-exported from the simulation clock.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// Flow is one RDMA-style transfer.
type Flow = netsim.Flow

// Scheme names accepted by MustScheme: the paper's comparison, the LHCS
// ablation, and two extension baselines from its related work (Timely: RTT
// gradient; Swift: delay target).
const (
	SchemeFNCC       = exp.SchemeFNCC
	SchemeFNCCNoLHCS = exp.SchemeFNCCNoLHCS
	SchemeHPCC       = exp.SchemeHPCC
	SchemeDCQCN      = exp.SchemeDCQCN
	SchemeTimely     = exp.SchemeTimely
	SchemeSwift      = exp.SchemeSwift
)

// DefaultNetConfig returns the paper's §5 fabric constants (1518 B MTU,
// PFC at 500 KB, symmetric ECMP, per-packet ACKs).
func DefaultNetConfig() netsim.Config { return netsim.DefaultConfig() }

// MustScheme builds a congestion-control scheme by name with paper-default
// parameters, panicking on unknown names.
func MustScheme(name string) netsim.Scheme { return exp.MustScheme(name) }

// AllSchemes lists the four compared schemes in canonical order.
func AllSchemes() []string { return exp.AllSchemes() }

// DefaultFNCCConfig returns the paper's FNCC constants: the contribution's
// tuning knobs (α, β, LHCS toggle, All_INT_Table refresh) for custom schemes.
func DefaultFNCCConfig() core.Config { return core.DefaultConfig() }

// NewFNCCScheme builds FNCC with custom parameters.
func NewFNCCScheme(cfg core.Config) netsim.Scheme { return core.NewScheme(cfg) }

// DefaultChainOpts returns the Fig 10 dumbbell (M=3 switches, given sender
// count, 100 G links, 1.5 us delay).
func DefaultChainOpts(senders int) topo.ChainOpts { return topo.DefaultChainOpts(senders) }

// MustChain constructs the Fig 10/11 dumbbell-chain topology, panicking on
// error.
func MustChain(cfg netsim.Config, s netsim.Scheme, o topo.ChainOpts) *topo.Chain {
	return topo.MustChain(cfg, s, o)
}

// Fat-tree builder.
type (
	// FatTree is the §5.5 k-ary fat-tree.
	FatTree = topo.FatTree
	// FatTreeOpts parameterizes MustFatTree.
	FatTreeOpts = topo.FatTreeOpts
)

// MustFatTree constructs a fat-tree, panicking on error.
func MustFatTree(cfg netsim.Config, s netsim.Scheme, o FatTreeOpts) *FatTree {
	return topo.MustFatTree(cfg, s, o)
}

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
	// canonical encoding and stable content hash. Its Backend field selects
	// the per-packet engine or the flow-level fluid approximation, its
	// Telemetry block the in-simulation probes.
	Scenario = scenario.Spec
	// ScenarioTopo declares a scenario's fabric.
	ScenarioTopo = scenario.TopoSpec
	// ScenarioWorkload declares a scenario's offered traffic.
	ScenarioWorkload = scenario.WorkloadSpec
	// ScenarioResult is one executed scenario's flat metric map (plus, for
	// flow-set kinds, the per-flow records behind the Figs 14/15 tables).
	ScenarioResult = scenario.Result
	// Sweep is a base scenario plus a grid over schemes/seeds/loads/sizes.
	Sweep = harness.Sweep
	// SweepGrid is the sweep dimensions.
	SweepGrid = harness.Grid
	// SweepRunner executes specs in parallel with a disk result cache.
	SweepRunner = harness.Runner
)

// Scenario and sweep entry points.
var (
	// RunScenario validates and executes one declarative scenario.
	RunScenario = scenario.Run
	// BuiltinScenarios lists the registry sorted by name.
	BuiltinScenarios = scenario.Builtin
	// LookupScenario resolves a registry name.
	LookupScenario = scenario.Lookup
	// PoolFCT merges each scheme's flow records across results (seeds);
	// FormatFCTTables renders the Fig 14/15 per-size-bucket slowdown
	// tables from the pooled records and FormatHeadlines the §5.5 headline
	// reductions.
	PoolFCT         = scenario.PoolFCT
	FormatFCTTables = exp.FormatFCTTables
	FormatHeadlines = exp.FormatHeadlines
	// SweepRows flattens results for export, one row per result.
	SweepRows = harness.Rows
)
