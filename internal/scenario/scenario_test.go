package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
)

// mustNorm is Normalize of a spec the test knows to be valid.
func mustNorm(t testing.TB, sp Spec) Norm {
	t.Helper()
	n, err := sp.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// goldenSpec exercises every spec field.
func goldenSpec() Spec {
	return Spec{
		Name:       "golden",
		Kind:       KindFCT,
		Scheme:     "FNCC",
		CC:         map[string]float64{"alpha": 1.1, "eta": 0.9},
		Topo:       TopoSpec{K: 4, Oversub: 2},
		Workload:   WorkloadSpec{CDF: "websearch"},
		Load:       0.4,
		Seed:       7,
		DurationUs: 500,
	}
}

// TestCanonicalGolden pins the canonical encoding and hash. These are the
// harness's cache keys: changing them silently invalidates every existing
// result cache, so a schema change must update this test deliberately.
func TestCanonicalGolden(t *testing.T) {
	const wantCanonical = `{"kind":"fct","scheme":"FNCC","cc":{"alpha":1.1,"eta":0.9},` +
		`"topo":{"kind":"fattree","k":4,"rate_gbps":100,"oversub":2,"delay_ns":1500},` +
		`"workload":{"cdf":"websearch"},"load":0.4,"seed":7,"duration_us":500}`
	const wantHash = "sc-51a79cf618877a1b" // fncc-scenario-v2 epoch

	sp := goldenSpec()
	c := mustNorm(t, sp).Canonical()
	if string(c) != wantCanonical {
		t.Errorf("canonical encoding drifted:\n got %s\nwant %s", c, wantCanonical)
	}
	if h := sp.Hash(); h != wantHash {
		t.Errorf("hash drifted: got %s, want %s", h, wantHash)
	}
	// Hashing twice (map iteration) must be stable.
	if h2 := sp.Hash(); h2 != wantHash {
		t.Errorf("hash unstable across calls: %s", h2)
	}
}

// TestHashIgnoresName: renames must not invalidate cached results; any
// semantic change must.
func TestHashIgnoresName(t *testing.T) {
	a := goldenSpec()
	b := goldenSpec()
	b.Name = "renamed"
	if a.Hash() != b.Hash() {
		t.Error("hash depends on Name")
	}
	b = goldenSpec()
	b.Seed = 8
	if a.Hash() == b.Hash() {
		t.Error("hash ignores Seed")
	}
	// Defaults are part of the identity: an explicit paper default hashes
	// like the sparse spec.
	sparse := Spec{Kind: KindMicro, Scheme: "FNCC"}
	full := Spec{Kind: KindMicro, Scheme: "FNCC",
		Topo:       TopoSpec{Kind: "chain", Switches: 3, Senders: 2, RateGbps: 100, DelayNs: 1500},
		DurationUs: 1200}
	if sparse.Hash() != full.Hash() {
		t.Error("sparse and explicitly-defaulted specs hash differently")
	}
}

// TestSpecRoundTrip: JSON round-trips preserve the spec exactly.
func TestSpecRoundTrip(t *testing.T) {
	for _, e := range Builtin() {
		sp := e.Spec.Normalized()
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sp.Name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", sp.Name, err)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Errorf("%s: round-trip drift:\n got %+v\nwant %+v", sp.Name, back, sp)
		}
		if sp.Hash() != back.Hash() {
			t.Errorf("%s: round-trip changed the hash", sp.Name)
		}
	}
}

// TestParseSpecRejectsUnknownFields: typos in spec files fail loudly.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"kind":"micro","scheme":"FNCC","topoo":{}}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

// TestRegistry: the built-ins cover every exp runner plus the new traffic
// patterns, and each entry validates.
func TestRegistry(t *testing.T) {
	entries := Builtin()
	if len(entries) < 8 {
		t.Fatalf("registry has %d entries, want >= 8", len(entries))
	}
	kinds := map[string]bool{}
	for _, e := range entries {
		if e.Spec.Name == "" || e.Desc == "" {
			t.Errorf("registry entry %+v missing name or description", e.Spec)
		}
		if err := e.Spec.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", e.Spec.Name, err)
		}
		kinds[e.Spec.Kind] = true
		if _, err := Lookup(e.Spec.Name); err != nil {
			t.Errorf("Lookup(%q): %v", e.Spec.Name, err)
		}
	}
	for _, k := range Kinds() {
		if !kinds[k] {
			t.Errorf("no builtin scenario of kind %q", k)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("Lookup accepted an unknown name")
	}
}

// TestFabricHostsAreSpecHosts: the fabric a run builds has Spec.Hosts()
// hosts, for every registry spec on every backend it validates on, so the
// flow set Flows writes is the one offerFlowSet offers.
func TestFabricHostsAreSpecHosts(t *testing.T) {
	for _, e := range Builtin() {
		for _, backend := range Backends() {
			sp := e.Spec
			sp.Backend = backend
			n := sp.Normalized()
			// The packet k = 32 fat-tree holds about 1.3 GB; the packet
			// builder is checked at k = 16 and the k = 32 count on fluid.
			if sp.Validate() != nil || n.BackendName() == BackendPacket && n.Topo.K > 16 {
				continue
			}
			fab, err := buildFabric(n, new(Arena))
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Spec.Name, backend, err)
			}
			if got, want := fab.Hosts(), n.Hosts(); got != want {
				t.Errorf("%s/%s: fabric has %d hosts, Spec.Hosts() = %d", e.Spec.Name, backend, got, want)
			}
		}
	}
}

// TestValidateRejects: each class of malformed spec is caught.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown kind", func(s *Spec) { s.Kind = "nope" }},
		{"unknown scheme", func(s *Spec) { s.Scheme = "TCP" }},
		{"bad cc key", func(s *Spec) { s.CC = map[string]float64{"gamma": 1} }},
		{"cc on dcqcn", func(s *Spec) { s.Scheme = "DCQCN"; s.CC = map[string]float64{"alpha": 1} }},
		{"odd fat-tree", func(s *Spec) { s.Kind = KindFCT; s.Topo.K = 5 }},
		{"chain for fct", func(s *Spec) { s.Kind = KindFCT; s.Topo.Kind = "chain" }},
		{"bad load", func(s *Spec) { s.Kind = KindFCT; s.Load = 1.5 }},
		{"bad cdf", func(s *Spec) { s.Kind = KindFCT; s.Workload.CDF = "uniform" }},
		{"bad hop", func(s *Spec) { s.Kind = KindHop; s.Hop = "fourth" }},
		{"fanout 1", func(s *Spec) { s.Kind = KindIncast; s.Workload.Fanout = 1 }},
		{"negative duration", func(s *Spec) { s.DurationUs = -5 }},
		{"oversub below 1", func(s *Spec) { s.Kind = KindFCT; s.Topo.Oversub = 0.5 }},
		// Knobs the kind's runner ignores are rejected, not silently
		// dropped (they would mint a fresh cache key for the same run).
		{"seed on micro", func(s *Spec) { s.Seed = 1 }},
		{"load on micro", func(s *Spec) { s.Load = 0.5 }},
		{"hop on micro", func(s *Spec) { s.Hop = "last" }},
		{"cdf on incast", func(s *Spec) { s.Kind = KindIncast; s.Workload.CDF = "websearch" }},
		{"switches not 3", func(s *Spec) { s.Topo.Switches = 6 }},
		{"one sender on micro", func(s *Spec) { s.Topo.Senders = 1 }},
		{"one sender on fairness", func(s *Spec) { s.Kind = KindFairness; s.Topo.Senders = 1 }},
		{"k on chain kind", func(s *Spec) { s.Topo.K = 4 }},
		{"delay on fct", func(s *Spec) { s.Kind = KindFCT; s.Topo.DelayNs = 5000 }},
		// The kinds that take a delay must still refuse one netsim.Connect
		// would panic on.
		{"negative delay on permutation", func(s *Spec) { s.Kind = KindPermutation; s.Topo.DelayNs = -1 }},
		{"negative delay on alltoall", func(s *Spec) { s.Kind = KindAllToAll; s.Topo.DelayNs = -1 }},
		{"negative delay on mixed", func(s *Spec) { s.Kind = KindMixed; s.Topo.DelayNs = -1500 }},
		{"negative shift", func(s *Spec) { s.Kind = KindPermutation; s.Workload.Shift = -1 }},
		{"negative burst", func(s *Spec) { s.Kind = KindMixed; s.Workload.BurstEveryUs = -1 }},
		{"negative flow bytes", func(s *Spec) { s.Kind = KindIncast; s.Workload.FlowBytes = -1 }},
		{"duration on fairness", func(s *Spec) { s.Kind = KindFairness; s.DurationUs = 100 }},
		// Patterns that do not fit the k^3/4 hosts fail before any fabric
		// is built, so show and submit refuse them.
		{"shift of all hosts", func(s *Spec) { s.Kind = KindPermutation; s.Topo.K = 4; s.Workload.Shift = 32 }},
		{"shift of all default hosts", func(s *Spec) { s.Kind = KindPermutation; s.Workload.Shift = 128 }},
		{"fanout of all hosts", func(s *Spec) { s.Kind = KindMixed; s.Workload.Fanout = 16 }},
		// Non-finite floats must be rejected here: json.Marshal cannot
		// encode them, so letting one through would panic in Hash.
		{"NaN load", func(s *Spec) { s.Kind = KindFCT; s.Load = math.NaN() }},
		{"NaN oversub", func(s *Spec) { s.Kind = KindFCT; s.Topo.Oversub = math.NaN() }},
		{"NaN cc override", func(s *Spec) { s.CC = map[string]float64{"alpha": math.NaN()} }},
		{"Inf cc override", func(s *Spec) { s.CC = map[string]float64{"beta": math.Inf(1)} }},
		// Finite cc overrides outside what their algorithm is defined on: an
		// out-of-range float-to-int conversion is up to the machine, eta <= 0
		// or a negative additive step runs another algorithm, and max_stage
		// 2.5 would hash apart from the run of 2.
		{"max_stage 1e300", func(s *Spec) { s.CC = map[string]float64{"max_stage": 1e300} }},
		{"max_stage 2.5", func(s *Spec) { s.CC = map[string]float64{"max_stage": 2.5} }},
		{"max_stage -1", func(s *Spec) { s.CC = map[string]float64{"max_stage": -1} }},
		{"table_update_us 1e300", func(s *Spec) { s.CC = map[string]float64{"table_update_us": 1e300} }},
		{"table_update_us past int64 ps", func(s *Spec) {
			s.CC = map[string]float64{"table_update_us": math.MaxInt64/1_000_000 + 1}
		}},
		{"table_update_us -1", func(s *Spec) { s.CC = map[string]float64{"table_update_us": -1} }},
		{"eta 0", func(s *Spec) { s.CC = map[string]float64{"eta": 0} }},
		{"eta 1.5", func(s *Spec) { s.CC = map[string]float64{"eta": 1.5} }},
		{"wai_bytes -1", func(s *Spec) { s.CC = map[string]float64{"wai_bytes": -1} }},
		{"min_wnd_bytes 0", func(s *Spec) { s.CC = map[string]float64{"min_wnd_bytes": 0} }},
		{"alpha 0", func(s *Spec) { s.CC = map[string]float64{"alpha": 0} }},
		{"beta -0.5", func(s *Spec) { s.CC = map[string]float64{"beta": -0.5} }},
		// The LHCS ablation is the FNCC-noLHCS scheme, not a key.
		{"lhcs key", func(s *Spec) { s.CC = map[string]float64{"lhcs": 0} }},
		{"eta 0 on hpcc", func(s *Spec) { s.Scheme = "HPCC"; s.CC = map[string]float64{"eta": 0} }},
		{"Inf oversub", func(s *Spec) { s.Kind = KindFCT; s.Topo.Oversub = math.Inf(1) }},
		// 100 Gbps / 2e12 truncates to a 0 bps core, which the fabric
		// builders would read as 1:1.
		{"oversub truncating the core to 0 bps", func(s *Spec) { s.Kind = KindFCT; s.Topo.Oversub = 2e12 }},
		// The fluid model has no LHCS, so this would run FNCC under a second hash.
		{"FNCC-noLHCS on fluid", func(s *Spec) { s.Kind, s.Backend, s.Scheme = KindFCT, BackendFluid, "FNCC-noLHCS" }},
	}
	for _, tc := range cases {
		sp := Spec{Kind: KindMicro, Scheme: "FNCC"}
		tc.mut(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	overflows := []struct {
		name string
		mut  func(*Spec)
		want string // in the error: the knob refused
	}{
		// Integer knobs whose picosecond or bit/s value overflows int64. Each
		// of these used to validate, and then panic in Run, fail late, or
		// simulate a wrapped horizon, delay or rate.
		{"stagger 1e13 us on fairness", func(s *Spec) { s.Kind = KindFairness; s.Workload.StaggerUs = 1e13 }, "workload.stagger_us"},
		{"fairness deadline 2*senders*stagger overflowing", func(s *Spec) {
			s.Kind = KindFairness
			s.Workload.StaggerUs = math.MaxInt64/1_000_000/(2*4) + 1 // 4 senders by default
		}, "workload.stagger_us"},
		{"fairness flows overflowing int64 bytes", func(s *Spec) {
			s.Kind = KindFairness
			s.Workload.StaggerUs, s.Topo.RateGbps = 1e9, 9e9
		}, "fairness flows"},
		{"rate 1e10 Gbps on permutation", func(s *Spec) { s.Kind = KindPermutation; s.Topo.RateGbps = 1e10 }, "topo.rate_gbps"},
		{"delay 1e16 ns on permutation", func(s *Spec) { s.Kind = KindPermutation; s.Topo.DelayNs = 1e16 }, "topo.delay_ns"},
		{"delay 1e16 ns on fluid permutation", func(s *Spec) {
			s.Kind, s.Backend, s.Topo.DelayNs = KindPermutation, BackendFluid, 1e16
		}, "topo.delay_ns"},
		{"duration 1e13 us on fct", func(s *Spec) { s.Kind = KindFCT; s.DurationUs = 1e13 }, "duration_us"},
		{"duration 2e13 us wrapping to a positive horizon", func(s *Spec) { s.Kind = KindFCT; s.DurationUs = 2e13 }, "duration_us"},
		{"first overflowing duration on micro", func(s *Spec) { s.DurationUs = math.MaxInt64/1_000_000 + 1 }, "duration_us"},
		{"burst period 1e13 us on mixed", func(s *Spec) { s.Kind = KindMixed; s.Workload.BurstEveryUs = 1e13 }, "workload.burst_every_us"},
		{"telemetry interval 2e13 us", func(s *Spec) {
			s.Telemetry = &TelemetrySpec{IntervalUs: 2e13, Probes: []string{"queue"}}
		}, "telemetry.interval_us"},
		{"telemetry interval -1e13 us wrapping positive", func(s *Spec) {
			s.Telemetry = &TelemetrySpec{IntervalUs: -1e13, Probes: []string{"queue"}}
		}, "telemetry.interval_us"},
		// Fabrics and flow sets past the size bounds, refused before anything
		// is sized by them: at k = 4194304, k^3 wraps int64 to 0, the
		// divisor of the permutation shift check.
		{"permutation on k = 4194304", func(s *Spec) {
			s.Kind, s.Topo.K, s.Workload.Shift = KindPermutation, 4194304, 1
		}, "topo.k = 4194304 builds more than 8192 hosts"},
		{"fct on k = 65536", func(s *Spec) { s.Kind, s.Topo.K = KindFCT, 65536 }, "more than 8192 hosts"},
		{"alltoall on k = 64", func(s *Spec) { s.Kind, s.Topo.K = KindAllToAll, 64 }, "more than 8192 hosts"},
		{"incast fanout 2^40", func(s *Spec) { s.Kind, s.Workload.Fanout = KindIncast, 1<<40 }, "workload.fanout"},
		{"micro on 8192 senders", func(s *Spec) { s.Topo.Senders = 8192 }, "more than 8192 hosts"},
		{"alltoall on k = 18", func(s *Spec) { s.Kind, s.Topo.K = KindAllToAll, 18 }, "more than 1048576 flows"},
		{"mixed bursts every us for 1e12 us", func(s *Spec) {
			s.Kind, s.Workload.BurstEveryUs, s.DurationUs = KindMixed, 1, 1e12
		}, "more than 1048576 flows"},
		// About 8.4e8 Poisson arrivals on the default 128 hosts, which
		// buildFlowSet would generate up front, on either engine.
		{"fct 1000 s at load 0.9", func(s *Spec) {
			s.Kind, s.Load, s.DurationUs = KindFCT, 0.9, 1_000_000_000
		}, "Poisson arrivals, more than 4194304"},
		{"fluid fct 1000 s at load 0.9", func(s *Spec) {
			s.Kind, s.Backend, s.Load, s.DurationUs = KindFCT, BackendFluid, 0.9, 1_000_000_000
		}, "Poisson arrivals, more than 4194304"},
		// No burst in 100 s, but about 1e7 Poisson arrivals on 16 hosts.
		{"mixed 100 s of Poisson background", func(s *Spec) {
			s.Kind, s.Load, s.DurationUs, s.Workload.BurstEveryUs = KindMixed, 0.9, 100_000_000, 1_000_000_000
		}, "Poisson arrivals, more than 4194304"},
	}
	for _, tc := range overflows {
		sp := Spec{Kind: KindMicro, Scheme: "FNCC"}
		tc.mut(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected for %q, want an error naming %s", tc.name, err, tc.want)
		}
	}
	for _, sp := range []Spec{
		{Kind: KindMicro, Scheme: "FNCC"},
		// Just inside the fabric: a shift past one lap, one responder short
		// of every host.
		{Kind: KindPermutation, Scheme: "FNCC", Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{Shift: 17}},
		{Kind: KindMixed, Scheme: "FNCC", Workload: WorkloadSpec{Fanout: 15}},
		// Just inside the size bounds.
		{Kind: KindPermutation, Scheme: "FNCC", Topo: TopoSpec{K: 32}},
		{Kind: KindAllToAll, Scheme: "FNCC", Topo: TopoSpec{K: 16}},
		{Kind: KindIncast, Scheme: "FNCC", Workload: WorkloadSpec{Fanout: 8191}},
		{Kind: KindMicro, Scheme: "FNCC", Topo: TopoSpec{Senders: 8191}},
		// About 8.4e5 expected Poisson arrivals.
		{Kind: KindFCT, Scheme: "FNCC", Load: 0.9, DurationUs: 1_000_000},
		// The Fig 15 point on the 1,024-host fabric, about 1.2e6 arrivals at
		// the default load and 2.4e6 at full load.
		{Kind: KindFCT, Scheme: "FNCC", Backend: BackendFluid, Topo: TopoSpec{K: 16}, Workload: WorkloadSpec{CDF: "hadoop"}},
		{Kind: KindFCT, Scheme: "FNCC", Backend: BackendFluid, Topo: TopoSpec{K: 16}, Workload: WorkloadSpec{CDF: "hadoop"}, Load: 1},
		// Just inside int64: the last deadline and the last fairness stagger
		// that fit.
		{Kind: KindIncast, Scheme: "FNCC", DurationUs: math.MaxInt64 / 1_000_000},
		{Kind: KindFairness, Scheme: "FNCC", Workload: WorkloadSpec{StaggerUs: math.MaxInt64 / 1_000_000 / (2 * 4)}},
		// Every cc override at the edges of its range.
		{Kind: KindMicro, Scheme: "FNCC", CC: map[string]float64{"eta": 1, "max_stage": 1e6, "wai_bytes": 0,
			"table_update_us": math.MaxInt64 / 1_000_000}},
		{Kind: KindMicro, Scheme: "FNCC", CC: map[string]float64{"max_stage": 0, "table_update_us": 0}},
	} {
		if err := sp.Validate(); err != nil {
			t.Errorf("valid %s spec rejected: %v", sp.Kind, err)
		}
	}
}

// TestSizeKnobsNeverPanic: whatever int a size knob holds, Validate answers
// with an error or nil, never a panic, on every registry entry, and the
// bounds refuse no registry entry or golden spec.
func TestSizeKnobsNeverPanic(t *testing.T) {
	specs := append(goldenFlowSpecs(), goldenChainSpecs()...)
	specs = append(specs, goldenSpec(), goldenIncastTelemetrySpec("FNCC"))
	for _, e := range Builtin() {
		specs = append(specs, e.Spec)
	}
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s (%s) no longer validates: %v", sp.Name, sp.Kind, err)
		}
	}
	values := []int{math.MinInt, -1 << 21, -1, 0, 1, 2, 3, 32, 34, 8191, 8192,
		1<<20 - 2, 1 << 20, 1<<20 + 2, 4194304, math.MaxInt - 1, math.MaxInt}
	knobs := []func(*Spec, int){
		func(s *Spec, v int) { s.Topo.K = v },
		func(s *Spec, v int) { s.Topo.Senders = v },
		func(s *Spec, v int) { s.Workload.Fanout = v },
	}
	for _, e := range Builtin() {
		for _, set := range knobs {
			for _, v := range values {
				sp := e.Spec
				set(&sp, v)
				if sp.Kind == KindPermutation {
					sp.Workload.Shift = 1
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%s with size %d: Validate panicked: %v", e.Spec.Name, v, p)
						}
					}()
					sp.Validate()
				}()
			}
		}
	}
}

// TestValidatedSpecsHash: whatever a float of a Spec holds, Validate refuses
// the spec or Hash encodes it. The harness hashes a validated spec outside
// the simulation's recover, so a Hash panic there kills a sweep worker.
func TestValidatedSpecsHash(t *testing.T) {
	bases := []Spec{{Name: "fct-fluid", Kind: KindFCT, Backend: BackendFluid, Scheme: "FNCC"}}
	for _, e := range Builtin() {
		bases = append(bases, e.Spec)
	}
	type field struct {
		name string
		set  func(*Spec, float64)
	}
	fields := []field{
		{"load", func(s *Spec, v float64) { s.Load = v }},
		{"topo.oversub", func(s *Spec, v float64) { s.Topo.Oversub = v }},
	}
	for k := range ccOverrides {
		fields = append(fields, field{"cc." + k, func(s *Spec, v float64) { s.CC = map[string]float64{k: v} }})
	}
	for _, base := range bases {
		for _, f := range fields {
			for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e308, 5e-324} {
				sp := base
				f.set(&sp, v)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s with %s = %v: %v", base.Name, f.name, v, r)
						}
					}()
					if sp.Validate() == nil {
						sp.Hash()
					}
				}()
			}
		}
	}
	// The integer knobs cannot break Hash, but converted to picoseconds or
	// bit/s they can wrap: at math.MaxInt64 and at the first value that
	// overflows, Validate must refuse every one of them on every base.
	type intField struct {
		name string
		unit int64
		set  func(*Spec, int64)
	}
	for _, f := range []intField{
		{"duration_us", 1_000_000, func(s *Spec, v int64) { s.DurationUs = v }},
		{"workload.stagger_us", 1_000_000, func(s *Spec, v int64) { s.Workload.StaggerUs = v }},
		{"workload.burst_every_us", 1_000_000, func(s *Spec, v int64) { s.Workload.BurstEveryUs = v }},
		{"topo.delay_ns", 1_000, func(s *Spec, v int64) { s.Topo.DelayNs = v }},
		{"topo.rate_gbps", 1_000_000_000, func(s *Spec, v int64) { s.Topo.RateGbps = v }},
		{"telemetry.interval_us", 1_000_000, func(s *Spec, v int64) {
			probes := s.SupportedProbes()[:1]
			s.Telemetry = &TelemetrySpec{IntervalUs: v, Probes: probes}
		}},
	} {
		for _, base := range bases {
			for _, v := range []int64{math.MaxInt64, math.MaxInt64/f.unit + 1} {
				sp := base
				f.set(&sp, v)
				if err := sp.Validate(); err == nil {
					t.Errorf("%s with %s = %d validated", base.Name, f.name, v)
				}
			}
		}
	}
}

// TestBuildSchemeOverrides: overrides land in the built scheme and bad ones
// error.
func TestBuildSchemeOverrides(t *testing.T) {
	s, err := BuildScheme(exp.SchemeFNCC, map[string]float64{
		"alpha": 1.2, "beta": 0.8, "eta": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != exp.SchemeFNCC {
		t.Errorf("scheme name %q", s.Name)
	}
	if _, err := BuildScheme(exp.SchemeHPCC, map[string]float64{"eta": 0.9}); err != nil {
		t.Errorf("hpcc eta override: %v", err)
	}
	if _, err := BuildScheme(exp.SchemeHPCC, map[string]float64{"alpha": 1.1}); err == nil {
		t.Error("hpcc accepted an fncc-only override")
	}
	if _, err := BuildScheme(exp.SchemeRoCC, map[string]float64{"eta": 0.9}); err == nil {
		t.Error("rocc accepted overrides")
	}
	if _, err := BuildScheme(exp.SchemeFNCC, map[string]float64{FluidSchemeCCKey: 1}); err == nil {
		t.Error("a packet scheme accepted the fluid backend's override")
	}
}

// TestSchemeRowKeysAreOverrides: which scheme reads which cc key is written
// once, in the exp rows. Every packet key of ccOverrides is read by some row,
// and every key a row lists is a packet key.
func TestSchemeRowKeysAreOverrides(t *testing.T) {
	read := map[string]bool{}
	for _, name := range exp.Schemes() {
		r, err := exp.Row(name)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSorted(r.Keys) {
			t.Errorf("%s lists its keys unsorted: %v", name, r.Keys)
		}
		for _, k := range r.Keys {
			if ccOverrides[k].set == nil {
				t.Errorf("%s reads %q, which is no packet cc override", name, k)
			}
			read[k] = true
		}
	}
	for k, o := range ccOverrides {
		if o.set != nil && !read[k] {
			t.Errorf("no scheme reads cc override %q", k)
		}
	}
}

// TestDefaultOverridesRunTheDefaultScheme: a scheme built by BuildScheme with
// every key it reads set to its default runs micro bit for bit like the
// scheme of a spec without cc, which is exp.NewScheme's. runFlows takes the
// spec as given: Normalize would drop the keys.
func TestDefaultOverridesRunTheDefaultScheme(t *testing.T) {
	defaults := ccDefaults()
	for _, name := range []string{exp.SchemeFNCC, exp.SchemeFNCCNoLHCS, exp.SchemeHPCC} {
		sp := Spec{Kind: KindMicro, Scheme: name}.Normalized()
		want, _, _, err := runFlows(sp, new(Arena))
		if err != nil {
			t.Fatal(err)
		}
		r, err := exp.Row(name)
		if err != nil {
			t.Fatal(err)
		}
		sp.CC = map[string]float64{}
		for _, k := range r.Keys {
			sp.CC[k] = defaults[k]
		}
		got, _, _, err := runFlows(sp, new(Arena))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics with every key at its default, %d without", name, len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: %s = %v with every key at its default, %v without", name, k, g, w)
			}
		}
	}
}

// TestOneSpellingPerRun: one simulation has one spelling, so one hash. Each
// row pairs a spec with a second spelling that used to run it bit for bit
// under another hash; the second must fail Validate, listing what is
// accepted.
func TestOneSpellingPerRun(t *testing.T) {
	fct := func(cdf string) Spec {
		return Spec{Kind: KindFCT, Scheme: "FNCC", Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: cdf}, DurationUs: 100}
	}
	hop := func(scheme string, over map[string]float64) Spec {
		return Spec{Kind: KindHop, Scheme: scheme, Hop: "last", CC: over, DurationUs: 500}
	}
	const cdfs = "(have [websearch hadoop])"
	const keys = "(have [alpha beta eta max_stage min_wnd_bytes table_update_us wai_bytes])"
	const noLHCSKeys = "(have [eta max_stage min_wnd_bytes table_update_us wai_bytes])"
	cases := []struct {
		canonical, other Spec
		accepted         string // in other's error
	}{
		{fct("hadoop"), fct("fbhadoop"), cdfs},
		{fct("hadoop"), fct("FB_Hadoop"), cdfs},
		{fct("websearch"), fct("WebSearch"), cdfs},
		{hop("FNCC-noLHCS", nil), hop("FNCC", map[string]float64{"lhcs": 0}), keys},
		{hop("FNCC", nil), hop("FNCC-noLHCS", map[string]float64{"lhcs": 1}), noLHCSKeys},
		// Only LHCS reads alpha and beta, and FNCC-noLHCS has none.
		{hop("FNCC-noLHCS", nil), hop("FNCC-noLHCS", map[string]float64{"alpha": 3}), noLHCSKeys},
		{hop("FNCC-noLHCS", nil), hop("FNCC-noLHCS", map[string]float64{"beta": 0.5}), noLHCSKeys},
	}
	for _, tc := range cases {
		if err := tc.canonical.Validate(); err != nil {
			t.Errorf("canonical %s/%s: %v", tc.canonical.Scheme, tc.canonical.Workload.CDF, err)
		}
		err := tc.other.Validate()
		if err == nil {
			t.Errorf("second spelling %s/%s %v validated", tc.other.Scheme, tc.other.Workload.CDF, tc.other.CC)
			continue
		}
		if !strings.Contains(err.Error(), tc.accepted) {
			t.Errorf("%v: want the accepted values %s", err, tc.accepted)
		}
	}
}

// TestRunEveryKind executes one cheap scenario per kind end to end and
// checks the metrics each kind promises.
func TestRunEveryKind(t *testing.T) {
	cases := []struct {
		spec Spec
		want []string
	}{
		{Spec{Kind: KindMicro, Scheme: "FNCC", DurationUs: 600},
			[]string{"queue_peak_bytes", "mean_util", "first_slowdown_us"}},
		{Spec{Kind: KindHop, Scheme: "FNCC", Hop: "middle", DurationUs: 500},
			[]string{"queue_peak_bytes", "mean_util", "lhcs_triggers"}},
		{Spec{Kind: KindNotify, Scheme: "FNCC", Hop: "first", DurationUs: 400},
			[]string{"notify_latency_us", "engine_events"}},
		{Spec{Kind: KindFairness, Scheme: "FNCC", Topo: TopoSpec{Senders: 2},
			Workload: WorkloadSpec{StaggerUs: 300}},
			[]string{"jain_all_active", "duration_us"}},
		{Spec{Kind: KindFCT, Scheme: "FNCC", Topo: TopoSpec{K: 4}, DurationUs: 300, Seed: 2},
			[]string{"completed", "generated", "slowdown_avg", "offered_load"}},
		{Spec{Kind: KindIncast, Scheme: "FNCC",
			Workload: WorkloadSpec{Fanout: 4, FlowBytes: 200_000}, DurationUs: 20_000},
			[]string{"queue_peak_bytes", "all_done_us", "jain_min"}},
		{Spec{Kind: KindPermutation, Scheme: "FNCC", Topo: TopoSpec{K: 4},
			Workload: WorkloadSpec{FlowBytes: 200_000}},
			[]string{"completed", "makespan_us", "slowdown_avg", "completed_all"}},
		{Spec{Kind: KindAllToAll, Scheme: "FNCC", Topo: TopoSpec{K: 2},
			Workload: WorkloadSpec{FlowBytes: 100_000}},
			[]string{"completed", "makespan_us", "slowdown_avg"}},
		{Spec{Kind: KindMixed, Scheme: "FNCC", Topo: TopoSpec{K: 4}, DurationUs: 600,
			Workload: WorkloadSpec{Fanout: 4, FlowBytes: 20_000, BurstEveryUs: 200}},
			[]string{"completed", "burst_flows", "slowdown_avg"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.spec.Kind, func(t *testing.T) {
			t.Parallel()
			res, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Hash != tc.spec.Hash() {
				t.Errorf("result hash %s != spec hash %s", res.Hash, tc.spec.Hash())
			}
			for _, m := range tc.want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("metric %q missing (have %v)", m, res.MetricNames())
				}
			}
		})
	}
}

// TestPermutationCompletes: the pattern is admissible, so every flow must
// finish well before the deadline and the pattern must actually cross pods.
func TestPermutationCompletes(t *testing.T) {
	res, err := Run(Spec{Kind: KindPermutation, Scheme: "HPCC",
		Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{FlowBytes: 100_000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["completed_all"] != 1 {
		t.Error("permutation missed its deadline")
	}
	if res.Metrics["completed"] != 16 {
		t.Errorf("completed %v flows, want 16", res.Metrics["completed"])
	}
}
