package fncc

import (
	"strings"
	"testing"
)

// Facade-level tests: everything a downstream user touches through the
// public package must work without reaching into internal/.

// TestFacadeCustomFNCCConfig: FNCC's tuning knobs reach a run through a
// Scenario's cc block. At the last hop LHCS fires, so β (its drain factor)
// is read, and the run must differ from the default β's.
func TestFacadeCustomFNCCConfig(t *testing.T) {
	sp := Scenario{Kind: "hop", Hop: "last", Scheme: SchemeFNCC, DurationUs: 500}
	def, err := RunScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.CC = map[string]float64{"beta": 0.8, "table_update_us": 4}
	custom, err := RunScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	if custom.Metrics["lhcs_triggers"] == 0 {
		t.Fatal("LHCS never fired at the last hop")
	}
	if custom.Metrics["queue_peak_bytes"] == def.Metrics["queue_peak_bytes"] &&
		custom.Metrics["engine_events"] == def.Metrics["engine_events"] {
		t.Fatalf("cc overrides changed nothing: %v", custom.Metrics)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if WebSearch().MeanBytes() < FBHadoop().MeanBytes() {
		t.Fatal("WebSearch should be heavier than Hadoop")
	}
}

func TestFacadeRunners(t *testing.T) {
	micro, err := LookupScenario("micro")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunScenario(micro)
	if err != nil || r.Metrics["queue_peak_bytes"] <= 0 {
		t.Fatalf("micro via facade: %v", err)
	}
	notify, err := LookupScenario("notify-first")
	if err != nil {
		t.Fatal(err)
	}
	if r, err = RunScenario(notify); err != nil || r.Metrics["notify_latency_us"] <= 0 {
		t.Fatalf("notify via facade: %v", err)
	}
	fct, err := RunScenario(Scenario{Kind: "fct", Scheme: SchemeFNCC,
		Topo: ScenarioTopo{K: 4}, DurationUs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tables, err := FormatBuckets([]*ScenarioResult{fct}); err != nil || !strings.Contains(tables, "== p99 FCT slowdown (websearch) ==") {
		t.Fatalf("no p99 panel (err %v):\n%s", err, tables)
	}
}
