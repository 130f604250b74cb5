package scenario

import (
	"math"
	"testing"
)

// licenceSkipped names the registry scenarios TestProbesMoveNoSimulatedKey
// leaves out for time, and why.
var licenceSkipped = map[string]string{
	"fct-hadoop":              "~20 s without probes",
	"fct-websearch":           "~20 s without probes",
	"oversub-websearch":       "~20 s without probes",
	"fct-websearch-fluid-k16": "its link series at 10 us take ~20 s",
	"permutation-fluid-k32":   "its 8,192 hosts' link series at 10 us take ~19 s",
}

// TestProbesMoveNoSimulatedKey is the licence for keeping telemetry out of
// the spec hash: probes only observe. Every registry scenario but the slow
// ones above, and a sharded k = 4 FCT point, runs with and without the
// block `fnccbench sweep -telemetry` adds, and the two runs agree on every
// simulated key, bit for bit and key for key. Only the simulator's
// self-measurements may move (probe ticks are engine events).
func TestProbesMoveNoSimulatedKey(t *testing.T) {
	specs := map[string]Spec{
		"fct-k4-workers2": {Kind: KindFCT, Scheme: "FNCC", Topo: TopoSpec{K: 4},
			Workload: WorkloadSpec{CDF: "websearch"}, DurationUs: 300, Workers: 2},
	}
	for _, name := range Names() {
		if _, skip := licenceSkipped[name]; !skip {
			sp, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			specs[name] = sp
		}
	}
	for name := range licenceSkipped {
		if _, err := Lookup(name); err != nil {
			t.Errorf("skip list: %v", err)
		}
	}
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if sp.Telemetry != nil {
				t.Fatal("the registry spec carries a telemetry block of its own")
			}
			plain := mustRun(t, sp)
			sp.Telemetry = sp.DefaultTelemetry()
			probed := mustRun(t, sp)
			if probed.Telemetry == nil || probed.Metrics["telemetry_samples"] == 0 {
				t.Fatal("the probed run took no samples")
			}
			if probed.Hash != plain.Hash {
				t.Errorf("probed run hashes %s, plain %s", probed.Hash, plain.Hash)
			}
			if key := SimulatedDiff(plain.Metrics, probed.Metrics); key != "" {
				t.Errorf("probes moved simulated key %q: %v without, %v with", key, plain.Metrics[key], probed.Metrics[key])
			}
		})
	}
}

// TestSimulatedDiff: the first simulated key in name order that differs in
// its bits or is in one map only; simulator metrics never count.
func TestSimulatedDiff(t *testing.T) {
	base := func() map[string]float64 {
		return map[string]float64{"all_done_us": 12, "fct_p99_us": 0, "jain": math.NaN(), "engine_events": 100}
	}
	for _, tc := range []struct {
		name string
		edit func(m map[string]float64)
		want string
	}{
		{"equal, NaN included", func(map[string]float64) {}, ""},
		{"an engine counter moved", func(m map[string]float64) { m["engine_events"] = 220 }, ""},
		{"telemetry bookkeeping added", func(m map[string]float64) { m["telemetry_samples"], m["trace_events"] = 5, 9 }, ""},
		{"-0 for 0", func(m map[string]float64) { m["fct_p99_us"] = math.Copysign(0, -1) }, "fct_p99_us"},
		{"another NaN payload", func(m map[string]float64) { m["jain"] = math.Float64frombits(0x7ff8_0000_0000_0002) }, "jain"},
		{"a key added", func(m map[string]float64) { m["drops"] = 0 }, "drops"},
		{"a key dropped", func(m map[string]float64) { delete(m, "jain") }, "jain"},
		{"two keys: the first by name", func(m map[string]float64) { m["jain"], m["all_done_us"] = 1, 13 }, "all_done_us"},
	} {
		b := base()
		tc.edit(b)
		if got := SimulatedDiff(base(), b); got != tc.want {
			t.Errorf("%s: SimulatedDiff = %q, want %q", tc.name, got, tc.want)
		}
		if got := SimulatedDiff(b, base()); got != tc.want {
			t.Errorf("%s, maps swapped: SimulatedDiff = %q, want %q", tc.name, got, tc.want)
		}
	}
}
