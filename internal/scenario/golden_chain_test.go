package scenario

import (
	"os"
	"strings"
	"testing"
)

// goldenChainSpecs is the chain family (micro, hop, notify, fairness, packet
// incast) over what no other golden reaches: micro on every scheme, four
// senders, 400 G, a cc override, a telemetry block and the sharded executor
// at two and three workers; hop and notify at every position for the three
// schemes Fig 13 compares; fairness at two sender counts; incast at two
// fanouts, with telemetry, sharded, and with a deadline that hits first.
// Windows are trimmed (the joining flow starts at 300 us) so the table runs
// in a few seconds.
func goldenChainSpecs() []Spec {
	chainTel := &TelemetrySpec{IntervalUs: 20, Probes: []string{"queue", "switch", "host", "cc"}}
	chainTrace := &TelemetrySpec{IntervalUs: 10, Probes: []string{"queue", "cc"}, TraceCap: 64}
	var specs []Spec
	for _, scheme := range []string{"FNCC", "FNCC-noLHCS", "HPCC", "DCQCN", "RoCC", "Timely", "Swift", "ExpressPass"} {
		specs = append(specs, Spec{Name: "micro-" + scheme, Kind: KindMicro, Scheme: scheme, DurationUs: 500})
	}
	specs = append(specs,
		Spec{Name: "micro-senders4", Kind: KindMicro, Scheme: "FNCC", Topo: TopoSpec{Senders: 4}, DurationUs: 1000},
		Spec{Name: "micro-400g", Kind: KindMicro, Scheme: "HPCC", Topo: TopoSpec{RateGbps: 400}, DurationUs: 450},
		// eta is a key FNCC-noLHCS reads, off its default 0.95, so the row
		// runs BuildScheme's override path.
		Spec{Name: "micro-cc-override", Kind: KindMicro, Scheme: "FNCC-noLHCS", CC: map[string]float64{"eta": 0.9}, DurationUs: 500},
		Spec{Name: "micro-telemetry", Kind: KindMicro, Scheme: "FNCC", DurationUs: 500, Telemetry: chainTrace},
		Spec{Name: "micro-workers2", Kind: KindMicro, Scheme: "FNCC", DurationUs: 500, Workers: 2},
		Spec{Name: "micro-workers3-telemetry", Kind: KindMicro, Scheme: "HPCC", DurationUs: 500, Workers: 3, Telemetry: chainTel},
	)
	for _, scheme := range []string{"FNCC", "FNCC-noLHCS", "HPCC"} {
		for _, hop := range []string{"first", "middle", "last"} {
			specs = append(specs,
				Spec{Name: "hop-" + hop + "-" + scheme, Kind: KindHop, Scheme: scheme, Hop: hop, DurationUs: 600},
				Spec{Name: "notify-" + hop + "-" + scheme, Kind: KindNotify, Scheme: scheme, Hop: hop, DurationUs: 400})
		}
	}
	incast := WorkloadSpec{Fanout: 4, FlowBytes: 200_000}
	specs = append(specs,
		Spec{Name: "hop-default-telemetry", Kind: KindHop, Scheme: "FNCC", Telemetry: chainTel},
		Spec{Name: "notify-never", Kind: KindNotify, Scheme: "FNCC", DurationUs: 300},
		Spec{Name: "fairness-senders3", Kind: KindFairness, Scheme: "FNCC", Topo: TopoSpec{Senders: 3}, Workload: WorkloadSpec{StaggerUs: 150}},
		Spec{Name: "fairness-senders4", Kind: KindFairness, Scheme: "HPCC", Workload: WorkloadSpec{StaggerUs: 100}},
		Spec{Name: "fairness-workers2", Kind: KindFairness, Scheme: "FNCC", Topo: TopoSpec{Senders: 3}, Workload: WorkloadSpec{StaggerUs: 150}, Workers: 2},
		Spec{Name: "incast-fanout4", Kind: KindIncast, Scheme: "FNCC", Workload: incast},
		Spec{Name: "incast-fanout16", Kind: KindIncast, Scheme: "FNCC-noLHCS", Workload: WorkloadSpec{FlowBytes: 100_000}},
		Spec{Name: "incast-telemetry", Kind: KindIncast, Scheme: "HPCC", Workload: incast, Telemetry: chainTel},
		Spec{Name: "incast-workers2", Kind: KindIncast, Scheme: "FNCC", Workload: incast, Workers: 2},
		Spec{Name: "incast-short-deadline", Kind: KindIncast, Scheme: "DCQCN", Workload: incast, DurationUs: 40},
	)
	return specs
}

// TestGoldenChainKinds is the licence for folding the four chain runners into
// one chain fabric: the file was written by the tree that still had
// one exp runner per chain figure, and whatever runs these kinds
// must reproduce every bit of it — metric values, the exact key set, the
// telemetry artifact and the cache hash. parallel_windows and
// cross_shard_messages are in the pinned set, so a kind that ran to its
// deadline must keep doing so. Regenerate with `go test -run
// TestGoldenChainKinds -update` only in a change that says which simulated
// number it means to move.
func TestGoldenChainKinds(t *testing.T) {
	const path = "testdata/golden_chain_kinds.txt"
	got := map[string]string{}
	var order []string
	for _, sp := range goldenChainSpecs() {
		r, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if r.FCT != nil {
			t.Errorf("%s: a chain kind carries flow records", sp.Name)
		}
		got[sp.Name] = goldenBlock(t, r)
		order = append(order, sp.Name)
	}
	checkGoldenSections(t, path, order, got)
}

// TestGoldenChainKindsCoverage keeps the table honest about what it claims to
// reach: both incast outcomes, a victim that never reacts, LHCS firing and
// not, an event trace, and the sharded executor must each actually occur in the pinned file.
func TestGoldenChainKindsCoverage(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_chain_kinds.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"all_done_us bff0000000000000 (-1)",
		"notify_latency_us bff0000000000000 (-1)",
		"first_slowdown_us bff0000000000000 (-1)",
		"parallel_workers 4000000000000000 (2)",
		"parallel_workers 4008000000000000 (3)",
		"parallel_windows ",
		"cross_shard_messages ",
		"telemetry_samples ",
		"trace_events 40", // a positive count
		"lhcs_triggers 40",
		"lhcs_triggers 0000000000000000 (0)",
	} {
		if !strings.Contains(string(data), line) {
			t.Errorf("golden file never shows %q", line)
		}
	}
}
