package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fluid"
	"repro/internal/sim"
)

// allSchemes is every scheme exp.NewScheme builds.
var allSchemes = []string{exp.SchemeFNCC, exp.SchemeFNCCNoLHCS, exp.SchemeHPCC, exp.SchemeDCQCN,
	exp.SchemeRoCC, exp.SchemeTimely, exp.SchemeSwift, exp.SchemeExpressPass}

// ccDefaults is each packet cc key's value in core.DefaultConfig().
// TestOneSpelling checks that it names every key a packet scheme takes and
// that setting each value leaves the config unchanged.
func ccDefaults() map[string]float64 {
	d := core.DefaultConfig()
	return map[string]float64{
		"eta": d.HPCC.Eta, "max_stage": float64(d.HPCC.MaxStage),
		"wai_bytes": d.HPCC.WaiBytes, "min_wnd_bytes": d.HPCC.MinWndBytes,
		"alpha": d.Alpha, "beta": d.Beta,
		"table_update_us": float64(d.TableUpdatePeriod) / float64(sim.Microsecond),
	}
}

// ccKeysSorted lists the ccOverrides keys sorted.
func ccKeysSorted() []string {
	var keys []string
	for k := range ccOverrides {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spell returns sp with the JSON field at the dotted path set to v, as a
// spec file would spell it.
func spell(t *testing.T, sp Spec, path string, v any) Spec {
	t.Helper()
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	obj := m
	parts := strings.Split(path, ".")
	for _, p := range parts[:len(parts)-1] {
		inner, ok := obj[p].(map[string]any)
		if !ok {
			inner = map[string]any{}
			obj[p] = inner
		}
		obj = inner
	}
	obj[parts[len(parts)-1]] = v
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	out, err := ParseSpec(raw)
	if err != nil {
		t.Fatalf("%s = %v: %v", path, v, err)
	}
	return out
}

// sameHash fails unless spelled validates and hashes as twin.
func sameHash(t *testing.T, what string, twin, spelled Spec) {
	t.Helper()
	tn, err := twin.Normalize()
	if err != nil {
		t.Fatalf("%s: twin: %v", what, err)
	}
	sn, err := spelled.Normalize()
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	if got, want := sn.Hash(), tn.Hash(); got != want {
		t.Errorf("%s hashes %s, its twin %s", what, got, want)
	}
	if got, want := spelled.Hash(), tn.Hash(); got != want {
		t.Errorf("%s: Spec.Hash %s, Norm.Hash %s", what, got, want)
	}
}

// validTelemetry is a spread of telemetry blocks that validate on sp's
// backend: each probe class alone, all of them in reverse order with one
// listed twice, a 1 us and a one-second cadence, and on the packet backend a
// trace with and without probes.
func validTelemetry(sp Spec) []map[string]any {
	probes := sp.SupportedProbes()
	all := []string{probes[0]}
	for i := len(probes) - 1; i >= 0; i-- {
		all = append(all, probes[i])
	}
	var out []map[string]any
	for _, p := range probes {
		out = append(out, map[string]any{"interval_us": 1, "probes": []string{p}})
	}
	out = append(out, map[string]any{"interval_us": 1_000_000, "probes": all})
	if sp.BackendName() == BackendPacket {
		out = append(out, map[string]any{"interval_us": 10, "trace_cap": 1},
			map[string]any{"interval_us": 10, "probes": probes, "trace_cap": 4096})
	}
	return out
}

// TestOneSpelling: a setting spelled at its default hashes as the spec that
// leaves it out. The spellings come from kindRows, knobTable and
// ccOverrides: on every kind and backend it runs on, each knob at the row's
// default, the defaults of backend, workers, topo.oversub, the telemetry
// block and the cc map, and every block of validTelemetry, which only
// observes; on every scheme and backend, each cc key the scheme takes at its
// default, and at -0 where 0 is valid.
func TestOneSpelling(t *testing.T) {
	for i := range kindRows {
		r := &kindRows[i]
		backends := []string{BackendPacket}
		if r.fluid {
			backends = append(backends, BackendFluid)
		}
		for _, b := range backends {
			twin := Spec{Kind: r.def.Kind, Scheme: "FNCC"}
			if b == BackendFluid {
				twin.Backend = BackendFluid
			}
			what := r.def.Kind + "/" + b + " "
			for _, k := range knobTable {
				sameHash(t, what+k.name, twin, spell(t, twin, k.name, k.of(&r.def)))
			}
			if b == BackendPacket {
				sameHash(t, what+"backend", twin, spell(t, twin, "backend", BackendPacket))
			}
			sameHash(t, what+"workers", twin, spell(t, twin, "workers", 1))
			sameHash(t, what+"topo.oversub", twin, spell(t, twin, "topo.oversub", 1))
			sameHash(t, what+"telemetry", twin, spell(t, twin, "telemetry", map[string]any{}))
			for _, tel := range validTelemetry(twin) {
				sameHash(t, fmt.Sprintf("%stelemetry %v", what, tel), twin, spell(t, twin, "telemetry", tel))
			}
			sameHash(t, what+"cc", twin, spell(t, twin, "cc", map[string]any{}))
		}
	}

	defaults := ccDefaults()
	for _, k := range ccKeysSorted() {
		o := ccOverrides[k]
		if _, ok := defaults[k]; !ok && o.set != nil {
			t.Errorf("ccDefaults has no %q", k)
		}
		for _, scheme := range allSchemes {
			for _, b := range []string{"", BackendFluid} {
				if !takes(scheme, b, k) {
					continue
				}
				twin := Spec{Kind: KindHop, Scheme: scheme}
				def := defaults[k]
				if b == BackendFluid {
					twin = Spec{Kind: KindFCT, Backend: BackendFluid, Scheme: scheme}
					def = fluid.TauRTTs[scheme]
				} else {
					c := core.DefaultConfig()
					o.set(&c, def)
					if c != core.DefaultConfig() {
						t.Errorf("%s = %v is not the default config", k, def)
					}
				}
				what := scheme + "/" + twin.BackendName() + " cc." + k
				sameHash(t, what, twin, spell(t, twin, "cc."+k, def))
				if o.ok(0) {
					zero := spell(t, twin, "cc."+k, 0)
					negZero := zero
					negZero.CC = map[string]float64{k: math.Copysign(0, -1)}
					sameHash(t, what+" = -0", zero, negZero)
				}
			}
		}
	}

	// A table period under a picosecond runs as 0 ps, the default.
	for _, scheme := range []string{exp.SchemeFNCC, exp.SchemeFNCCNoLHCS} {
		twin := Spec{Kind: KindHop, Scheme: scheme}
		sameHash(t, scheme+" table_update_us = 1e-7", twin, spell(t, twin, "cc.table_update_us", 1e-7))
	}
	c := core.DefaultConfig()
	ccOverrides["table_update_us"].set(&c, 1e-7)
	if c != core.DefaultConfig() {
		t.Error("table_update_us = 1e-7 is not the default config")
	}

	// hop-last's second spellings (CI's A3 loop runs beta 0.9) and the fluid
	// time constant of FNCC at its calibration.
	for k, v := range map[string]float64{"beta": 0.9, "table_update_us": 1e-7} {
		sp := Spec{Kind: KindHop, Hop: "last", Scheme: "FNCC", CC: map[string]float64{k: v}}
		if h := sp.Hash(); h != "sc-531370de53759630" {
			t.Errorf("hop-last with %s = %v hashes %s, want hop-last's sc-531370de53759630", k, v, h)
		}
	}
	fl := Spec{Kind: KindFCT, Backend: BackendFluid, Scheme: "FNCC", Topo: TopoSpec{K: 4},
		Workload: WorkloadSpec{CDF: "websearch"}, CC: map[string]float64{FluidSchemeCCKey: 0.5}}
	if h := fl.Hash(); h != "sc-71c02000ea230223" {
		t.Errorf("fluid FNCC k=4 with fluid_tau_rtts 0.5 hashes %s, want sc-71c02000ea230223", h)
	}

	// Dropping a key merges two cache entries of one simulation: run each
	// twin, then the twin with the key put back past Normalize, bit for bit.
	for _, tc := range []struct {
		twin Spec
		k    string
		v    float64
	}{
		{Spec{Kind: KindHop, Hop: "last", Scheme: "FNCC"}, "beta", 0.9},
		{Spec{Kind: KindFCT, Backend: BackendFluid, Scheme: "FNCC", Topo: TopoSpec{K: 4},
			Workload: WorkloadSpec{CDF: "websearch"}, DurationUs: 500}, FluidSchemeCCKey, 0.5},
	} {
		n := mustNorm(t, tc.twin)
		want, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		kept := n.s
		kept.CC = map[string]float64{tc.k: tc.v}
		got, err := Norm{kept}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Errorf("%s with %s = %v:\n got %v\nwant %v", tc.twin.Kind, tc.k, tc.v, got.Metrics, want.Metrics)
		}
	}
}

// TestNormalizeBuildsNoScheme: Normalize checks a packet spec's scheme and cc
// keys without constructing the scheme, so the only allocation left on these
// specs is the normalized copy of a cc map. Building the scheme cost 2 on
// FNCC micro, 1 on HPCC fct and 3 of the β spec's 4.
func TestNormalizeBuildsNoScheme(t *testing.T) {
	for _, tc := range []struct {
		sp   Spec
		want float64
	}{
		{Spec{Kind: KindMicro, Scheme: "FNCC"}, 0},
		{Spec{Kind: KindFCT, Scheme: "HPCC"}, 0},
		{Spec{Kind: KindHop, Hop: "last", Scheme: "FNCC", CC: map[string]float64{"beta": 0.8}}, 1},
	} {
		if got := testing.AllocsPerRun(100, func() { tc.sp.Normalize() }); got != tc.want {
			t.Errorf("%s/%s: Normalize makes %v allocations, want %v", tc.sp.Kind, tc.sp.Scheme, got, tc.want)
		}
	}
}
