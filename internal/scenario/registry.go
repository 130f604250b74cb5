package scenario

import (
	"fmt"
	"sort"
)

// Entry is one named built-in scenario.
type Entry struct {
	Spec Spec
	// Desc is a one-line description for `fnccbench list`.
	Desc string
}

// builtin holds the registry. Specs are sparse — Normalized fills the
// paper defaults — and every entry must Validate (enforced by tests).
var builtin = []Entry{
	{
		Spec: Spec{Name: "micro", Kind: KindMicro, Scheme: "FNCC"},
		Desc: "Figs 1b-d/9: two-elephant dumbbell; queue, rates, utilization",
	},
	{
		Spec: Spec{Name: "micro-200g", Kind: KindMicro, Scheme: "FNCC", Topo: TopoSpec{RateGbps: 200}},
		Desc: "Figs 1c/3: the dumbbell at 200G; queue and PFC pauses",
	},
	{
		Spec: Spec{Name: "micro-400g", Kind: KindMicro, Scheme: "FNCC", Topo: TopoSpec{RateGbps: 400}},
		Desc: "Figs 1d/3: the dumbbell at 400G; queue and PFC pauses",
	},
	{
		Spec: Spec{Name: "hop-first", Kind: KindHop, Scheme: "FNCC", Hop: "first"},
		Desc: "Fig 13a: congestion at the first hop of the chain",
	},
	{
		Spec: Spec{Name: "hop-middle", Kind: KindHop, Scheme: "FNCC", Hop: "middle"},
		Desc: "Fig 13b: congestion at the middle hop",
	},
	{
		Spec: Spec{Name: "hop-last", Kind: KindHop, Scheme: "FNCC", Hop: "last"},
		Desc: "Fig 13c: congestion at the last hop (LHCS territory)",
	},
	{
		Spec: Spec{Name: "notify-first", Kind: KindNotify, Scheme: "FNCC", Hop: "first"},
		Desc: "Fig 2/12: notification latency, congestion at the first hop",
	},
	{
		Spec: Spec{Name: "notify-middle", Kind: KindNotify, Scheme: "FNCC", Hop: "middle"},
		Desc: "Fig 2/12: notification latency, congestion at the middle hop",
	},
	{
		Spec: Spec{Name: "notify-last", Kind: KindNotify, Scheme: "FNCC", Hop: "last"},
		Desc: "Fig 2/12: notification latency, congestion at the last hop",
	},
	{
		Spec: Spec{Name: "fairness", Kind: KindFairness, Scheme: "FNCC"},
		Desc: "Fig 13e: staggered join/leave convergence, Jain index",
	},
	{
		Spec: Spec{Name: "fct-websearch", Kind: KindFCT, Scheme: "FNCC",
			Workload: WorkloadSpec{CDF: "websearch"}},
		Desc: "Fig 14: k=8 fat-tree, WebSearch Poisson at 50% load",
	},
	{
		Spec: Spec{Name: "fct-hadoop", Kind: KindFCT, Scheme: "FNCC",
			Workload: WorkloadSpec{CDF: "hadoop"}},
		Desc: "Fig 15: k=8 fat-tree, FB_Hadoop Poisson at 50% load",
	},
	{
		Spec: Spec{Name: "incast", Kind: KindIncast, Scheme: "FNCC"},
		Desc: "§3.2.2: 16-to-1 last-hop burst motivating LHCS",
	},
	{
		Spec: Spec{Name: "permutation", Kind: KindPermutation, Scheme: "FNCC"},
		Desc: "new: cross-pod permutation, one 1MB flow per host",
	},
	{
		Spec: Spec{Name: "alltoall", Kind: KindAllToAll, Scheme: "FNCC"},
		Desc: "new: full shuffle, every host to every other host",
	},
	{
		Spec: Spec{Name: "oversub-websearch", Kind: KindFCT, Scheme: "FNCC",
			Topo:     TopoSpec{Oversub: 2},
			Workload: WorkloadSpec{CDF: "websearch"}},
		Desc: "new: WebSearch at 50% load on a 2:1 oversubscribed core",
	},
	{
		Spec: Spec{Name: "mixed-websearch-incast", Kind: KindMixed, Scheme: "FNCC"},
		Desc: "new: WebSearch background plus periodic 8-to-1 incast bursts",
	},
	{
		Spec: Spec{Name: "fct-websearch-fluid", Kind: KindFCT, Scheme: "FNCC",
			Backend:  BackendFluid,
			Workload: WorkloadSpec{CDF: "websearch"}},
		Desc: "new: Fig 14 point on the flow-level fluid backend (ms, not minutes)",
	},
	{
		Spec: Spec{Name: "permutation-fluid", Kind: KindPermutation, Scheme: "FNCC",
			Backend: BackendFluid},
		Desc: "new: cross-pod permutation on the fluid backend",
	},
	{
		Spec: Spec{Name: "fct-websearch-fluid-k16", Kind: KindFCT, Scheme: "FNCC",
			Backend:  BackendFluid,
			Topo:     TopoSpec{K: 16},
			Workload: WorkloadSpec{CDF: "websearch"}},
		Desc: "new: WebSearch FCT on a k=16 fat-tree (1024 hosts), incremental fluid engine",
	},
	{
		Spec: Spec{Name: "permutation-fluid-k32", Kind: KindPermutation, Scheme: "FNCC",
			Backend: BackendFluid,
			Topo:    TopoSpec{K: 32}},
		Desc: "new: 8192-host cross-pod permutation, incremental fluid engine",
	},
}

// Builtin returns the registry entries sorted by name.
func Builtin() []Entry {
	out := append([]Entry(nil), builtin...)
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// Names lists the registered scenario names sorted.
func Names() []string {
	es := Builtin()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.Spec.Name
	}
	return names
}

// Lookup resolves a registry name to its spec.
func Lookup(name string) (Spec, error) {
	for _, e := range builtin {
		if e.Spec.Name == name {
			return e.Spec, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
}
