// Package fncc is the public facade of the FNCC reproduction: a
// packet-level data-center network simulator with four congestion-control
// schemes (FNCC, HPCC, DCQCN, RoCC), the paper's topologies (dumbbell
// chains and k-ary fat-trees), trace-driven workloads (WebSearch,
// FB_Hadoop), and one declarative scenario kind per evaluation figure.
//
// The facade is deliberately small: it re-exports what the programs under
// examples/, the runnable documentation and the root tests use
// (TestFacadeExportsAreUsed holds it to that). Its front door is the
// declarative Scenario and the sweep harness; the few fabric names beside
// them are what examples/customcc needs to race an outside congestion
// control scheme. Everything else (the fluid backend, telemetry probes, the
// sweep server) is reached through a Scenario's fields or through
// cmd/fnccbench.
//
// # Quick start
//
//	sp, err := fncc.LookupScenario("micro") // the §5.1 two-flow dumbbell
//	if err != nil {
//		panic(err)
//	}
//	for _, name := range fncc.AllSchemes() {
//		sp.Scheme = name
//		r, err := fncc.RunScenario(sp)
//		if err != nil {
//			panic(err)
//		}
//		fmt.Println(name, r.Metrics["queue_peak_bytes"], r.Metrics["first_slowdown_us"])
//	}
//
// See examples/ for runnable programs and DESIGN.md for the map from the
// paper's figures to scenario kinds (RunScenario, cmd/fnccbench).
package fncc

import (
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

// Microsecond is one microsecond of simulated time.
const Microsecond = sim.Microsecond

// Scheme names accepted by MustScheme and a Scenario's Scheme field: the
// paper's comparison and the LHCS ablation.
const (
	SchemeFNCC       = exp.SchemeFNCC
	SchemeFNCCNoLHCS = exp.SchemeFNCCNoLHCS
	SchemeHPCC       = exp.SchemeHPCC
	SchemeDCQCN      = exp.SchemeDCQCN
)

// DefaultNetConfig returns the paper's §5 fabric constants (1518 B MTU,
// PFC at 500 KB). Symmetric ECMP (an ACK retraces its data's path, Fig 5)
// and one ACK per in-order data packet are fixed properties of the model,
// not settings.
func DefaultNetConfig() netsim.Config { return netsim.DefaultConfig() }

// MustScheme builds a congestion-control scheme by name with paper-default
// parameters, panicking on unknown names.
func MustScheme(name string) netsim.Scheme { return exp.MustScheme(name) }

// AllSchemes lists the four compared schemes in canonical order.
func AllSchemes() []string { return exp.AllSchemes() }

// DefaultChainOpts returns the Fig 10 dumbbell (M=3 switches, given sender
// count, 100 G links, 1.5 us delay).
func DefaultChainOpts(senders int) topo.ChainOpts { return topo.DefaultChainOpts(senders) }

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
	// FormatBuckets renders the Figs 14/15 per-size-bucket slowdown tables
	// and the §5.5 headline reductions from fct/mixed results, each scheme's
	// flow records pooled across seeds.
	FormatBuckets = scenario.FormatBuckets
	// SweepRows flattens results for export, one row per result.
	SweepRows = harness.Rows
)
