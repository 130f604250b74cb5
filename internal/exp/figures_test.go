package exp_test

// The paper's orderings, asserted on the metrics a scenario.Run of the figure
// reports: the same inequalities on the same scalars the per-figure runners'
// result structs used to carry.

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/scenario"
)

// run executes one spec and returns its metric map.
func run(t *testing.T, sp scenario.Spec) map[string]float64 {
	t.Helper()
	r, err := scenario.Run(sp)
	if err != nil {
		t.Fatalf("%s/%s: %v", sp.Kind, sp.Scheme, err)
	}
	return r.Metrics
}

// micro is the dumbbell micro-benchmark over a trimmed window.
func micro(scheme string, rateGbps, durUs int64) scenario.Spec {
	return scenario.Spec{Kind: scenario.KindMicro, Scheme: scheme,
		Topo: scenario.TopoSpec{RateGbps: rateGbps}, DurationUs: durUs}
}

func TestRunMicroShapes(t *testing.T) {
	// The central integration test: run all four schemes on the Fig 9
	// micro-benchmark at 100G and assert the paper's qualitative ordering.
	byName := map[string]map[string]float64{}
	for _, scheme := range exp.AllSchemes() {
		m := run(t, micro(scheme, 100, 800))
		byName[scheme] = m
		if m["drops"] != 0 {
			t.Fatalf("%s: %v drops with PFC on", scheme, m["drops"])
		}
	}
	fncc, hpcc, dcqcn := byName[exp.SchemeFNCC], byName[exp.SchemeHPCC], byName[exp.SchemeDCQCN]

	// Fig 9b: FNCC reacts first.
	if fncc["first_slowdown_us"] < 0 || hpcc["first_slowdown_us"] < 0 {
		t.Fatalf("no slowdown: fncc=%v hpcc=%v", fncc["first_slowdown_us"], hpcc["first_slowdown_us"])
	}
	if fncc["first_slowdown_us"] >= hpcc["first_slowdown_us"] {
		t.Errorf("FNCC slowdown %v not before HPCC %v", fncc["first_slowdown_us"], hpcc["first_slowdown_us"])
	}
	// Fig 9a: queue peaks ordered FNCC < HPCC < DCQCN.
	if !(fncc["queue_peak_bytes"] < hpcc["queue_peak_bytes"]) {
		t.Errorf("queue peaks: FNCC %.0f !< HPCC %.0f", fncc["queue_peak_bytes"], hpcc["queue_peak_bytes"])
	}
	if !(hpcc["queue_peak_bytes"] < dcqcn["queue_peak_bytes"]) {
		t.Errorf("queue peaks: HPCC %.0f !< DCQCN %.0f", hpcc["queue_peak_bytes"], dcqcn["queue_peak_bytes"])
	}
	// Fig 9g: FNCC keeps utilization high after the join.
	if fncc["mean_util"] < 0.85 {
		t.Errorf("FNCC mean utilization %.2f < 0.85", fncc["mean_util"])
	}
}

func TestRunMicroHigherRates(t *testing.T) {
	// Fig 9c-f robustness: the FNCC < HPCC queue ordering must hold at
	// 400G too (shorter windows keep this cheap).
	fncc := run(t, micro(exp.SchemeFNCC, 400, 600))["queue_peak_bytes"]
	hpcc := run(t, micro(exp.SchemeHPCC, 400, 600))["queue_peak_bytes"]
	if !(fncc < hpcc) {
		t.Errorf("@400G: FNCC peak %.0f !< HPCC %.0f", fncc, hpcc)
	}
}

func TestRunMicroValidation(t *testing.T) {
	one := micro(exp.SchemeFNCC, 100, 400)
	one.Topo.Senders = 1
	if err := one.Validate(); err == nil {
		t.Error("accepted 1 sender")
	}
	if err := micro("nope", 100, 400).Validate(); err == nil {
		t.Error("accepted unknown scheme")
	}
}

func TestRunHopPositionsAndLHCSGain(t *testing.T) {
	// Fig 13a-c: FNCC's queue reduction vs HPCC is largest at the first
	// hop, smaller mid-chain; at the last hop LHCS recovers the gain.
	hop := func(scheme, pos string) map[string]float64 {
		return run(t, scenario.Spec{Kind: scenario.KindHop, Scheme: scheme, Hop: pos})
	}
	for _, pos := range []string{"first", "middle", "last"} {
		h, f := hop(exp.SchemeHPCC, pos), hop(exp.SchemeFNCC, pos)
		if f["queue_peak_bytes"] >= h["queue_peak_bytes"] {
			t.Errorf("%s: FNCC peak %.0f !< HPCC %.0f", pos, f["queue_peak_bytes"], h["queue_peak_bytes"])
		}
	}
	// Last hop: LHCS beats no-LHCS (Fig 13c's 38.5% vs 8.4%).
	lhcsOn, lhcsOff := hop(exp.SchemeFNCC, "last"), hop(exp.SchemeFNCCNoLHCS, "last")
	if lhcsOn["lhcs_triggers"] == 0 {
		t.Error("LHCS never fired at the last hop")
	}
	if lhcsOff["lhcs_triggers"] != 0 {
		t.Error("LHCS fired while disabled")
	}
	if lhcsOn["queue_peak_bytes"] >= lhcsOff["queue_peak_bytes"] {
		t.Errorf("LHCS on peak %.0f !< off %.0f", lhcsOn["queue_peak_bytes"], lhcsOff["queue_peak_bytes"])
	}
}

func TestRunHopValidation(t *testing.T) {
	sp := scenario.Spec{Kind: scenario.KindHop, Scheme: exp.SchemeFNCC, Hop: "nowhere"}
	if err := sp.Validate(); err == nil {
		t.Fatal("accepted bad position")
	}
}

func TestRunFairness(t *testing.T) {
	m := run(t, scenario.Spec{Kind: scenario.KindFairness, Scheme: exp.SchemeFNCC,
		Workload: scenario.WorkloadSpec{StaggerUs: 400}}) // CI-scale
	// Four senders join and leave 400 us apart.
	if m["duration_us"] != 3200 {
		t.Fatalf("duration %v us", m["duration_us"])
	}
	// Fig 13e: good fairness on short time scales.
	if m["jain_all_active"] < 0.85 {
		t.Fatalf("Jain index %.3f < 0.85 during full overlap", m["jain_all_active"])
	}
}

func TestRunFairnessValidation(t *testing.T) {
	sp := scenario.Spec{Kind: scenario.KindFairness, Scheme: exp.SchemeFNCC, Topo: scenario.TopoSpec{Senders: 1}}
	if err := sp.Validate(); err == nil {
		t.Fatal("accepted 1 sender")
	}
}

func TestRunIncastLHCSWins(t *testing.T) {
	incast := func(scheme string) map[string]float64 {
		m := run(t, scenario.Spec{Kind: scenario.KindIncast, Scheme: scheme,
			Workload: scenario.WorkloadSpec{Fanout: 8, FlowBytes: 512 << 10}})
		if m["all_done_us"] < 0 {
			t.Fatalf("%s: incast did not complete", scheme)
		}
		return m
	}
	on, off, hpcc := incast(exp.SchemeFNCC), incast(exp.SchemeFNCCNoLHCS), incast(exp.SchemeHPCC)

	if on["lhcs_triggers"] == 0 {
		t.Fatal("LHCS never fired during last-hop incast")
	}
	if off["lhcs_triggers"] != 0 || hpcc["lhcs_triggers"] != 0 {
		t.Fatal("LHCS counter leaked into non-LHCS schemes")
	}
	if on["queue_peak_bytes"] >= off["queue_peak_bytes"] {
		t.Errorf("LHCS peak %.0f !< no-LHCS %.0f", on["queue_peak_bytes"], off["queue_peak_bytes"])
	}
	if on["queue_peak_bytes"] >= hpcc["queue_peak_bytes"] {
		t.Errorf("FNCC peak %.0f !< HPCC %.0f", on["queue_peak_bytes"], hpcc["queue_peak_bytes"])
	}
	// LHCS assigns the fair window directly: its worst-case rate fairness
	// while all senders are active must beat the step-down schemes'.
	if on["jain_min"] <= off["jain_min"] {
		t.Errorf("LHCS jain %.3f !> no-LHCS %.3f", on["jain_min"], off["jain_min"])
	}
}

func TestRunIncastValidation(t *testing.T) {
	sp := scenario.Spec{Kind: scenario.KindIncast, Scheme: exp.SchemeFNCC, Workload: scenario.WorkloadSpec{Fanout: 1}}
	if err := sp.Validate(); err == nil {
		t.Error("accepted fanout 1")
	}
	if err := (scenario.Spec{Kind: scenario.KindIncast, Scheme: "nope"}).Validate(); err == nil {
		t.Error("accepted unknown scheme")
	}
}

// TestTimelyRunsOnMicro drives the Timely extension through the standard
// micro-benchmark: it must slow down after the join (later than FNCC) and
// keep the queue bounded.
func TestTimelyRunsOnMicro(t *testing.T) {
	m := run(t, micro(exp.SchemeTimely, 100, 900))
	if m["first_slowdown_us"] < 0 {
		t.Fatal("Timely never slowed down")
	}
	if m["drops"] != 0 {
		t.Fatalf("drops: %v", m["drops"])
	}
	fncc := run(t, micro(exp.SchemeFNCC, 100, 1200))
	if m["first_slowdown_us"] < fncc["first_slowdown_us"] {
		t.Errorf("RTT-based Timely (%v us) reacted before INT-in-ACK FNCC (%v us)?",
			m["first_slowdown_us"], fncc["first_slowdown_us"])
	}
}

// TestSwiftRunsOnMicro drives the Swift extension through the standard
// micro-benchmark.
func TestSwiftRunsOnMicro(t *testing.T) {
	m := run(t, micro(exp.SchemeSwift, 100, 900))
	if m["drops"] != 0 {
		t.Fatalf("drops: %v", m["drops"])
	}
	if peak := m["queue_peak_bytes"]; peak == 0 || peak > 500<<10 {
		t.Fatalf("Swift queue peak %.0fKB", peak/1024)
	}
}
