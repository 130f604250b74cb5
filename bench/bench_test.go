package main

import (
	"bytes"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// BENCHMARK.json at the repository root is generated (bench -manifest); a
// hand edit of either side shows here.
func TestManifestMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the tables; regenerate with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":         "sim",
		"repro/internal/netsim.(*Host).trySend":     "netsim",
		"repro/internal/core.(*sender).OnAck":       "core",
		"repro/internal/fluid.(*Sim).recompute":     "fluid",
		"repro/internal/harness.(*Runner).store":    "harness",
		"repro/internal/packet.(*Pool).Get":         "packet",
		"runtime.gcDrain":                           "runtime.gc",
		"runtime.scanobject":                        "runtime.gc",
		"runtime.mallocgc":                          "runtime.other",
		"encoding/json.(*encodeState).marshal":      "runtime.other",
		"repro/bench.stagedPacket":                  "runtime.other",
		"":                                          "runtime.other",
		"repro/internal/metrics.(*Dist).Quantile":   "metrics",
		"repro/internal/sweepd.(*Server).worker":    "sweepd",
		"repro/internal/scenario.Spec.Hash":         "scenario",
		"repro/internal/exp.RunMicro.func1":         "exp",
		"repro/internal/workload.Generate":          "workload",
		"repro/internal/topo.BuildFatTree":          "topo",
		"repro/internal/cc.(*hpccSender).OnAck":     "cc",
		"repro/internal/telemetry.(*NetProbe).tick": "telemetry",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A small profile captured here, of packet simulation only, must fold onto
// the packet engine's layers and onto nothing the run did not touch.
func TestFoldCapturedProfile(t *testing.T) {
	sp := scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC"}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
		if _, err := scenario.Run(sp); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	folded, err := foldProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, ns := range folded {
		total += ns
	}
	if total == 0 {
		t.Skip("the profiler took no samples")
	}
	if folded["sim"] == 0 || folded["netsim"] == 0 {
		t.Errorf("sim and netsim got no samples: %v", folded)
	}
	if folded["fluid"] != 0 || folded["harness"] != 0 {
		t.Errorf("layers the run never entered got samples: %v", folded)
	}
	m := map[string]float64{}
	cpuShares(m, folded)
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestDigest(t *testing.T) {
	a := map[string]float64{"completed": 3, "slowdown_avg": 1.25, "engine_events": 1e6,
		"engine_events_per_sec": 5e6, "mallocs_per_run": 100, "alloc_bytes_per_run": 4096}
	b := map[string]float64{"alloc_bytes_per_run": 1, "mallocs_per_run": 2, "engine_events_per_sec": 3,
		"engine_events": 1e6, "slowdown_avg": 1.25, "completed": 3}
	if digest(a) != digest(b) {
		t.Error("digest depends on insertion order or on a host-dependent key")
	}
	b["slowdown_avg"] = 1.2500000000000002
	if digest(a) == digest(b) {
		t.Error("digest missed a one-ulp change")
	}
	c := map[string]float64{"completed": 3, "parallel_windows": 9, "pool_hit_rate": 0.5}
	d := map[string]float64{"completed": 3, "pool_hit_rate": 0.9}
	if digest(c) == digest(d) || digest(c, shardOnly) != digest(d, shardOnly) {
		t.Error("shardOnly keys are not skipped exactly when asked")
	}
}

// The staged mirror must produce what scenario.Run produces, on both
// backends and under sharding.
func TestStagedMirrorMatchesScenarioRun(t *testing.T) {
	base := scenario.Spec{Kind: scenario.KindFCT, Scheme: "FNCC", Topo: scenario.TopoSpec{K: 4},
		Workload: scenario.WorkloadSpec{CDF: "websearch"}, Load: 0.5, DurationUs: 100, Seed: 3}
	sharded, fluid := base, base
	sharded.Workers = 2
	fluid.Backend = scenario.BackendFluid
	for name, sp := range map[string]scenario.Spec{"packet": base, "sharded": sharded, "fluid": fluid} {
		want, err := scenario.Run(sp)
		if err != nil {
			t.Fatal(name, err)
		}
		tr := newTracer()
		got, err := stagedFCT(sp, tr, -1)
		if err != nil {
			t.Fatal(name, err)
		}
		if digest(got) != digest(want.Metrics) {
			t.Errorf("%s: staged mirror differs from scenario.Run\n got %v\nwant %v", name, got, want.Metrics)
		}
		if len(tr.spans) < 5 || tr.counts["workload.flows"] == 0 {
			t.Errorf("%s: %d spans, counts %v", name, len(tr.spans), tr.counts)
		}
	}
}

// An 8-point grid through the three sweep instances: every cache-accounting
// and cross-mode check of the sweep workloads passes.
func TestTinySweep(t *testing.T) {
	sw := sweepGrid(5)
	sw.Grid = harness.Grid{Schemes: []string{"FNCC", "DCQCN"}, Loads: []float64{0.3, 0.6}, Seeds: []int64{5, 6}}
	e := &env{scratch: t.TempDir()}
	for name, mk := range map[string]func(*env, harness.Sweep) (*instance, error){
		"sweep-cold": sweepCold, "sweep-warm": sweepWarm, "sweep-served": sweepServed} {
		in, err := mk(e, sw)
		if err != nil {
			t.Fatal(name, err)
		}
		w, _ := findWorkload(name)
		ck := newChecker(w, 5, nil, false)
		var first []pointResult
		for i := 0; i < 2; i++ {
			points, _, err := in.runBody(nil)
			if err != nil {
				t.Fatal(name, err)
			}
			if first == nil {
				first = points
			}
			ck.repeat(points)
		}
		ck.cross(in, first)
		in.close()
		want := 2*8 + 1
		if name == "sweep-warm" {
			want = 2*8*warmReplays + 1
		}
		if ck.failed != 0 || ck.attempted != want {
			t.Errorf("%s: %d failed of %d attempted (want 0 of %d): %v", name, ck.failed, ck.attempted, want, ck.reasons)
		}
	}
	// A pass that simulates when it should hit must be reported.
	if _, err := runnerPass(t.TempDir(), mustExpand(t, sw), 0, nil, nil, nil); err == nil {
		t.Error("a cold pass passed the warm accounting check")
	}
}

func mustExpand(t *testing.T, sw harness.Sweep) []scenario.Spec {
	t.Helper()
	specs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if s := summarize(v); s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
}

// The calibration walk must visit every slot: a shorter cycle would shrink
// the working set the walk is meant to cover.
func TestChaseCycleIsOneCycle(t *testing.T) {
	next := chaseCycle(1 << 10)
	seen, p := 0, uint32(0)
	for {
		p = next[p]
		seen++
		if p == 0 || seen > len(next) {
			break
		}
	}
	if seen != len(next) {
		t.Fatalf("cycle through slot 0 has %d of %d slots", seen, len(next))
	}
}
