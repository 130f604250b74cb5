package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden_*.txt tables from this tree")

// goldenFlowSpecs is the flow-set family (fct, mixed, permutation, alltoall,
// fluid incast) on both backends, over the variants no other golden reaches:
// oversubscription, cc overrides, the fluid tau override, telemetry on both
// backends, non-default shift/delay/seed, a deadline too short to finish,
// and the sharded executor. Everything is k=4 and <= 600 us so the whole
// table runs in about a second.
func goldenFlowSpecs() []Spec {
	k4 := TopoSpec{K: 4}
	hadoop := WorkloadSpec{CDF: "hadoop"}
	packetTel := &TelemetrySpec{IntervalUs: 20, Probes: []string{"queue", "switch", "host", "cc"}}
	packetTrace := &TelemetrySpec{IntervalUs: 20, Probes: []string{"queue", "cc"}, TraceCap: 64}
	fluidTel := &TelemetrySpec{IntervalUs: 5, Probes: []string{"rate", "link"}}
	perm := WorkloadSpec{FlowBytes: 50_000}
	shifted := WorkloadSpec{FlowBytes: 50_000, Shift: 3}
	mixed := WorkloadSpec{CDF: "hadoop", Fanout: 4, FlowBytes: 20_000, BurstEveryUs: 100}
	incast := WorkloadSpec{Fanout: 6, FlowBytes: 100_000}
	return []Spec{
		{Name: "fct-websearch", Kind: KindFCT, Scheme: "FNCC", Topo: k4, DurationUs: 100},
		{Name: "fct-hadoop-hpcc", Kind: KindFCT, Scheme: "HPCC", Topo: k4, Workload: hadoop, Load: 0.7, Seed: 3, DurationUs: 300},
		{Name: "fct-oversub", Kind: KindFCT, Scheme: "DCQCN", Topo: TopoSpec{K: 4, Oversub: 4}, Workload: hadoop, DurationUs: 300},
		// An override FNCC-noLHCS reads (see micro-cc-override).
		{Name: "fct-cc-override", Kind: KindFCT, Scheme: "FNCC-noLHCS", CC: map[string]float64{"eta": 0.9}, Topo: k4, Workload: hadoop, DurationUs: 300},
		{Name: "fct-telemetry", Kind: KindFCT, Scheme: "FNCC", Topo: k4, Workload: hadoop, DurationUs: 200, Telemetry: packetTrace},
		{Name: "fct-workers2", Kind: KindFCT, Scheme: "FNCC", Topo: k4, Workload: hadoop, DurationUs: 300, Workers: 2},
		{Name: "fct-workers3-telemetry", Kind: KindFCT, Scheme: "HPCC", Topo: k4, Workload: hadoop, DurationUs: 200, Workers: 3, Telemetry: packetTel},
		{Name: "permutation", Kind: KindPermutation, Scheme: "FNCC", Topo: k4, Workload: perm, DurationUs: 600},
		{Name: "permutation-shift-delay-seed", Kind: KindPermutation, Scheme: "DCQCN", Topo: TopoSpec{K: 4, DelayNs: 1000}, Workload: shifted, Seed: 7, DurationUs: 600},
		{Name: "permutation-workers2", Kind: KindPermutation, Scheme: "FNCC", Topo: k4, Workload: perm, DurationUs: 600, Workers: 2},
		{Name: "permutation-short-deadline", Kind: KindPermutation, Scheme: "FNCC", Topo: k4, Workload: WorkloadSpec{FlowBytes: 50_000, Shift: 1}, DurationUs: 10},
		{Name: "alltoall", Kind: KindAllToAll, Scheme: "FNCC", Topo: k4, Workload: WorkloadSpec{FlowBytes: 8_000}, DurationUs: 600},
		{Name: "alltoall-telemetry", Kind: KindAllToAll, Scheme: "HPCC", Topo: k4, Workload: WorkloadSpec{FlowBytes: 4_000}, DurationUs: 600, Telemetry: packetTel},
		{Name: "mixed", Kind: KindMixed, Scheme: "FNCC", Topo: k4, Workload: mixed, DurationUs: 350},
		{Name: "mixed-workers3", Kind: KindMixed, Scheme: "FNCC", Topo: k4, Workload: mixed, DurationUs: 350, Workers: 3},
		{Name: "mixed-cc-telemetry", Kind: KindMixed, Scheme: "HPCC", CC: map[string]float64{"eta": 0.9}, Topo: TopoSpec{K: 4, Oversub: 2}, Workload: mixed, Load: 0.5, Seed: 2, DurationUs: 250, Telemetry: packetTrace},

		{Name: "fluid-fct-websearch", Kind: KindFCT, Backend: BackendFluid, Scheme: "FNCC", Topo: k4, DurationUs: 600},
		{Name: "fluid-fct-oversub", Kind: KindFCT, Backend: BackendFluid, Scheme: "DCQCN", Topo: TopoSpec{K: 4, Oversub: 4}, Workload: hadoop, Load: 0.8, DurationUs: 600},
		{Name: "fluid-fct-tau0", Kind: KindFCT, Backend: BackendFluid, Scheme: "HPCC", CC: map[string]float64{FluidSchemeCCKey: 0}, Topo: k4, Workload: hadoop, Seed: 5, DurationUs: 600},
		{Name: "fluid-fct-telemetry", Kind: KindFCT, Backend: BackendFluid, Scheme: "FNCC", Topo: k4, Workload: hadoop, DurationUs: 300, Telemetry: fluidTel},
		{Name: "fluid-permutation-shift-delay-seed", Kind: KindPermutation, Backend: BackendFluid, Scheme: "DCQCN", Topo: TopoSpec{K: 4, DelayNs: 1000}, Workload: shifted, Seed: 7, DurationUs: 600},
		{Name: "fluid-permutation-short-deadline", Kind: KindPermutation, Backend: BackendFluid, Scheme: "FNCC", Topo: k4, Workload: perm, DurationUs: 3},
		{Name: "fluid-alltoall", Kind: KindAllToAll, Backend: BackendFluid, Scheme: "FNCC", Topo: k4, Workload: WorkloadSpec{FlowBytes: 8_000}, DurationUs: 600},
		{Name: "fluid-alltoall-telemetry", Kind: KindAllToAll, Backend: BackendFluid, Scheme: "Timely", CC: map[string]float64{FluidSchemeCCKey: 2.5}, Topo: k4, Workload: WorkloadSpec{FlowBytes: 4_000}, DurationUs: 600, Telemetry: fluidTel},
		{Name: "fluid-incast", Kind: KindIncast, Backend: BackendFluid, Scheme: "FNCC", Workload: incast, DurationUs: 600},
		{Name: "fluid-incast-telemetry", Kind: KindIncast, Backend: BackendFluid, Scheme: "DCQCN", Workload: incast, DurationUs: 600, Telemetry: fluidTel},
		{Name: "fluid-incast-short-deadline", Kind: KindIncast, Backend: BackendFluid, Scheme: "FNCC", CC: map[string]float64{FluidSchemeCCKey: 0}, Workload: incast, DurationUs: 20},
	}
}

// goldenBlock renders everything a run pins, one line per fact.
func goldenBlock(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "hash %s\n", r.Hash)
	if r.Telemetry == nil {
		b.WriteString("telemetry -\n")
	} else {
		j, err := json.Marshal(r.Telemetry)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "telemetry %x\n", sha256.Sum256(j))
	}
	for _, k := range r.MetricNames() {
		v := r.Metrics[k]
		fmt.Fprintf(&b, "%s %016x (%v)\n", k, math.Float64bits(v), v)
	}
	return b.String()
}

// TestGoldenFlowKinds is the licence for routing every flow-set kind through
// one path: the file was written by the tree that still had one runner per
// kind per backend, and the single path must reproduce every bit of it —
// metric values, the exact key set, the telemetry artifact and the cache
// hash. The specs run one after another on one arena whose recycled storage
// is poisoned, their blocks rendered after the last run. Regenerate with
// `go test -run TestGoldenFlowKinds -update` only in a change that says
// which simulated number it means to move.
func TestGoldenFlowKinds(t *testing.T) {
	const path = "testdata/golden_flow_kinds.txt"
	got := map[string]string{}
	var order []string
	specs := goldenFlowSpecs()
	for i, r := range runOnOneArena(t, specs) {
		got[specs[i].Name] = goldenBlock(t, r)
		order = append(order, specs[i].Name)
	}
	checkGoldenSections(t, path, order, got)
}

// checkGoldenSections compares named text blocks with a golden file of
// "## name" sections, line by line, or rewrites the file under -update.
func checkGoldenSections(t *testing.T, path string, order []string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "## %s\n%s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sec := range strings.Split(string(data), "## ")[1:] {
		name, block, _ := strings.Cut(sec, "\n")
		want[name] = strings.TrimSuffix(block, "\n")
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d specs, table has %d", len(want), len(got))
	}
	for _, name := range order {
		if got[name] == want[name] {
			continue
		}
		wl := strings.Split(want[name], "\n")
		gl := strings.Split(got[name], "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Errorf("%s line %d:\n  got  %q\n  want %q", name, i+1, g, w)
			}
		}
	}
}

// TestGoldenFlowKindsCoverage keeps the table honest about what it claims to
// reach: both deadline outcomes, both backends' telemetry, and the sharded
// executor must each actually occur in the pinned file.
func TestGoldenFlowKindsCoverage(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_flow_kinds.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"completed_all 0000000000000000 (0)",
		"completed_all 3ff0000000000000 (1)",
		"all_done_us bff0000000000000 (-1)",
		"parallel_workers 4000000000000000 (2)",
		"parallel_workers 4008000000000000 (3)",
		"burst_flows ",
	} {
		if !strings.Contains(string(data), line) {
			t.Errorf("golden file never shows %q", line)
		}
	}
}
