package scenario

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/chunk/chunktest"
	"repro/internal/workload"
)

// runOnOneArena runs specs in order on one arena whose recycled storage is
// poisoned (chunktest), and returns the results, to be read only after every
// run: a result still pointing into storage a later run took back reads the
// poison, or what that run wrote there.
func runOnOneArena(t *testing.T, specs []Spec) []*Result {
	t.Helper()
	chunktest.Poison(t)
	var a Arena
	results := make([]*Result, len(specs))
	for i, sp := range specs {
		n, err := sp.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if results[i], err = n.Run(WithArena(&a)); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
	}
	return results
}

// sameResult demands that two runs of one spec agree on everything a Result
// keeps: every metric's bits, the flow records, and the telemetry artifact
// with its figure rows (JSON encodes a float64 by its shortest round-trip
// form, so equal bytes are equal bits).
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Metrics) != len(want.Metrics) {
		t.Errorf("%s: %d metrics, want %d", label, len(got.Metrics), len(want.Metrics))
	}
	for k, w := range want.Metrics {
		if g, ok := got.Metrics[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: %s = %v, want %v", label, k, g, w)
		}
	}
	if (got.FCT == nil) != (want.FCT == nil) || got.FCT != nil && !slices.Equal(got.FCT.Records, want.FCT.Records) {
		t.Errorf("%s: flow records differ", label)
	}
	for _, pick := range []func(*Result) any{
		func(r *Result) any { return r.Telemetry },
		func(r *Result) any {
			if r.Telemetry == nil {
				return nil
			}
			return r.Telemetry.Figure
		},
	} {
		g, err := json.Marshal(pick(got))
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(pick(want))
		if err != nil {
			t.Fatal(err)
		}
		if string(g) != string(w) {
			t.Errorf("%s: telemetry differs:\n got %.200s...\nwant %.200s...", label, g, w)
		}
	}
}

// TestResultsShareNothingWithTheArena: points of every shape run one after
// another on one arena — packet and fluid FCT points, micro, a sharded point,
// and telemetry on each backend — each result kept while the next spec runs
// on the storage it gave back, poisoned in between. Every kept result must
// still equal, bit for bit, its spec's run on an arena of its own: nothing a
// Result keeps (metric map, flow records, telemetry output) aliases run
// storage.
func TestResultsShareNothingWithTheArena(t *testing.T) {
	k4 := TopoSpec{K: 4}
	specs := []Spec{
		{Name: "packet-fct", Kind: KindFCT, Scheme: "FNCC", Topo: k4, Load: 0.5, Seed: 2, DurationUs: 200},
		{Name: "fluid-fct", Kind: KindFCT, Backend: BackendFluid, Scheme: "HPCC", Topo: k4, Load: 0.5, Seed: 2, DurationUs: 500},
		{Name: "micro", Kind: KindMicro, Scheme: "FNCC", DurationUs: 500},
		{Name: "packet-fct-workers2", Kind: KindFCT, Scheme: "DCQCN", Topo: k4, Workload: WorkloadSpec{CDF: "hadoop"},
			Seed: 3, DurationUs: 200, Workers: 2},
		{Name: "micro-telemetry", Kind: KindMicro, Scheme: "HPCC", DurationUs: 300,
			Telemetry: &TelemetrySpec{IntervalUs: 10, Probes: []string{"queue", "cc"}, TraceCap: 64}},
		{Name: "fluid-fct-telemetry", Kind: KindFCT, Backend: BackendFluid, Scheme: "FNCC", Topo: k4, DurationUs: 300,
			Telemetry: &TelemetrySpec{IntervalUs: 5, Probes: []string{"rate", "link"}}},
		{Name: "packet-fct-telemetry", Kind: KindFCT, Scheme: "HPCC", Topo: k4, DurationUs: 100,
			Telemetry: &TelemetrySpec{IntervalUs: 20, Probes: []string{"queue", "switch", "host", "cc"}}},
	}
	// Twice round, so that every point runs on storage every shape grew.
	specs = append(specs, specs...)
	fresh := make([]*Result, len(specs))
	for i, sp := range specs {
		// Before the poison is on: an arena of its own is never recycled.
		n, err := sp.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if fresh[i], err = n.Run(WithArena(new(Arena))); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
	}
	for i, r := range runOnOneArena(t, specs) {
		sameResult(t, specs[i].Name, r, fresh[i])
	}
}

// TestArenaDroppedPastItsBound: a run that leaves an arena holding more than
// MaxArenaBytes empties it, so the next run starts on fresh storage; one that
// leaves less keeps it. (The flow array stands in for a large point's
// storage: the k=32 packet permutation that grows past the bound takes
// seconds to build.)
func TestArenaDroppedPastItsBound(t *testing.T) {
	n, err := Spec{Kind: KindMicro, Scheme: "FNCC", DurationUs: 100}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	a := Arena{flows: make([]workload.FlowSpec, 0, MaxArenaBytes/int(unsafe.Sizeof(workload.FlowSpec{}))+1)}
	if _, err := n.Run(WithArena(&a)); err != nil {
		t.Fatal(err)
	}
	if kept := a.Bytes(); kept != 0 {
		t.Fatalf("a run that left %d bytes behind kept %d of them, want the arena dropped", MaxArenaBytes+1, kept)
	}
	if _, err := n.Run(WithArena(&a)); err != nil {
		t.Fatal(err)
	}
	if kept := a.Bytes(); kept == 0 || kept > MaxArenaBytes {
		t.Fatalf("a micro point left the arena holding %d bytes, want it kept", kept)
	}
}
