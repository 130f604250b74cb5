package fncc

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// Facade-level tests: everything a downstream user touches through the
// public package must work without reaching into internal/.

func TestFacadeQuickstartPath(t *testing.T) {
	scheme := MustScheme(SchemeFNCC)
	chain := MustChain(DefaultNetConfig(), scheme, DefaultChainOpts(2))
	f0 := chain.AddFlow(1, 0, 500_000, 0)
	f1 := chain.AddFlow(2, 1, 500_000, 100*Microsecond)
	chain.Net.RunUntil(5 * Millisecond)
	if !f0.Done() || !f1.Done() {
		t.Fatal("facade quickstart flows incomplete")
	}
	if chain.Net.Drops.N != 0 {
		t.Fatal("drops in quickstart")
	}
}

func TestFacadeAllSchemesRun(t *testing.T) {
	for _, name := range AllSchemes() {
		chain := MustChain(DefaultNetConfig(), MustScheme(name), DefaultChainOpts(2))
		f := chain.AddFlow(1, 0, 100_000, 0)
		chain.AddFlow(2, 1, 100_000, 0)
		chain.Net.RunUntil(10 * Millisecond)
		if !f.Done() {
			t.Fatalf("%s: flow incomplete via facade", name)
		}
	}
}

func TestFacadeCustomFNCCConfig(t *testing.T) {
	cfg := DefaultFNCCConfig()
	cfg.Beta = 0.8
	cfg.TableUpdatePeriod = 4 * Microsecond
	scheme := NewFNCCScheme(cfg)
	chain := MustChain(DefaultNetConfig(), scheme, DefaultChainOpts(2))
	f := chain.AddFlow(1, 0, 200_000, 0)
	chain.Net.RunUntil(5 * Millisecond)
	if !f.Done() {
		t.Fatal("custom-config FNCC incomplete")
	}
}

func TestFacadeFatTreeOversubscription(t *testing.T) {
	// 2:1 oversubscribed core: cross-pod traffic is throttled by the
	// core links; same-pod traffic is not. Both must still complete.
	opts := FatTreeOpts{K: 4, RateBps: 100e9, CoreRateBps: 50e9, Delay: 1500 * sim.Nanosecond}
	ft := MustFatTree(DefaultNetConfig(), MustScheme(SchemeFNCC), opts)
	cross := ft.AddFlow(1, 0, 8, 2_000_000, 0) // pod 0 -> pod 2
	local := ft.AddFlow(2, 1, 2, 2_000_000, 0) // within pod 0
	ft.Net.RunToCompletion(100 * Millisecond)
	if !cross.Done() || !local.Done() {
		t.Fatal("oversubscribed flows incomplete")
	}
	// The same-pod flow never crosses the slow core, so it finishes first.
	if local.FinishedAt >= cross.FinishedAt {
		t.Fatalf("local %v should beat cross-pod %v over a 2:1 core",
			local.FinishedAt, cross.FinishedAt)
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
