package scenario

import (
	"math"
	"testing"
)

// Cross-validation: the fluid backend is only trustworthy if it reproduces
// the packet engine's FCT statistics on scenarios small enough to run both.
// The tolerances below are the model's validated error envelope — they are
// quoted in DESIGN.md's Backends section, so a change here must update the
// docs. Both engines are deterministic, so these comparisons are exact
// regressions, not flaky statistical checks; measured agreement at the time
// of writing is ~3% (permutation), ~5-8% (fct), ~9% (incast).

// relDiff is |a-b| / b.
func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// runPair executes the same spec under both backends.
func runPair(t *testing.T, sp Spec) (packet, fluid *Result) {
	t.Helper()
	sp.Backend = BackendPacket
	packet, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.Backend = BackendFluid
	fluid, err = Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	return packet, fluid
}

// TestCrossValidatePermutation: identical flow sets and identical ECMP
// placement (both fat-trees take it from topo.FatTreeOpts) make the
// cross-pod permutation the tightest comparison: mean slowdown within 10%.
func TestCrossValidatePermutation(t *testing.T) {
	const tolerance = 0.10
	pk, fl := runPair(t, Spec{Kind: KindPermutation, Scheme: "FNCC",
		Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{FlowBytes: 200_000}})
	if pk.Metrics["completed_all"] != 1 || fl.Metrics["completed_all"] != 1 {
		t.Fatal("a backend missed the permutation deadline")
	}
	p, f := pk.Metrics["slowdown_avg"], fl.Metrics["slowdown_avg"]
	if d := relDiff(f, p); d > tolerance {
		t.Errorf("mean slowdown: packet %.4f, fluid %.4f, rel diff %.1f%% > %.0f%%",
			p, f, 100*d, 100*tolerance)
	}
	if d := relDiff(fl.Metrics["makespan_us"], pk.Metrics["makespan_us"]); d > tolerance {
		t.Errorf("makespan: packet %.2fus, fluid %.2fus, rel diff %.1f%%",
			pk.Metrics["makespan_us"], fl.Metrics["makespan_us"], 100*d)
	}
}

// TestCrossValidateFCT: a small Poisson FCT run (k=4 WebSearch) with the
// same generated trace under both backends; mean slowdown within 15%.
func TestCrossValidateFCT(t *testing.T) {
	const tolerance = 0.15
	for _, tc := range []struct {
		load float64
		seed int64
	}{{0.4, 1}, {0.5, 2}} {
		pk, fl := runPair(t, Spec{Kind: KindFCT, Scheme: "FNCC",
			Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: "websearch"},
			Load: tc.load, Seed: tc.seed, DurationUs: 300})
		if pk.Metrics["generated"] != fl.Metrics["generated"] {
			t.Fatalf("load %v seed %d: backends saw different traces (%v vs %v flows)",
				tc.load, tc.seed, pk.Metrics["generated"], fl.Metrics["generated"])
		}
		if pk.Metrics["completed"] == 0 {
			t.Fatalf("load %v seed %d: no completions", tc.load, tc.seed)
		}
		p, f := pk.Metrics["slowdown_avg"], fl.Metrics["slowdown_avg"]
		if d := relDiff(f, p); d > tolerance {
			t.Errorf("load %v seed %d: mean slowdown packet %.4f, fluid %.4f, rel diff %.1f%% > %.0f%%",
				tc.load, tc.seed, p, f, 100*d, 100*tolerance)
		}
	}
}

// TestCrossValidateIncast: the fluid incast has no queue build-up or PFC,
// so its completion time should undershoot packet slightly but stay within
// 15% on a moderate burst.
func TestCrossValidateIncast(t *testing.T) {
	const tolerance = 0.15
	pk, fl := runPair(t, Spec{Kind: KindIncast, Scheme: "FNCC",
		Workload: WorkloadSpec{Fanout: 8, FlowBytes: 1 << 19}, DurationUs: 100_000})
	p, f := pk.Metrics["all_done_us"], fl.Metrics["all_done_us"]
	if p < 0 || f < 0 {
		t.Fatalf("a backend missed the incast deadline: packet %v, fluid %v", p, f)
	}
	if d := relDiff(f, p); d > tolerance {
		t.Errorf("all-done: packet %.2fus, fluid %.2fus, rel diff %.1f%% > %.0f%%",
			p, f, 100*d, 100*tolerance)
	}
}
