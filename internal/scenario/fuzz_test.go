package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecRoundTrip: for any JSON that parses and validates, the canonical
// encoding must be a fixed point — decode → Validate → Canonical → decode →
// Canonical yields the same bytes, the same hash, and still validates.
// This is the invariant the harness cache rests on: if canonicalization
// were not idempotent, a spec could hash differently depending on whether
// it arrived from a user file or from a cached result's embedded spec.
func FuzzSpecRoundTrip(f *testing.F) {
	// Seed corpus: every registry scenario, both sparse (as registered) and
	// canonical (as cached), plus a kitchen-sink spec and some near-misses.
	for _, e := range Builtin() {
		sparse, err := e.Spec.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sparse)
		raw, err := json.Marshal(e.Spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	g, err := goldenSpec().Canonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(g)
	f.Add([]byte(`{"kind":"incast","backend":"fluid","scheme":"FNCC"}`))
	f.Add([]byte(`{"kind":"fct","scheme":"HPCC","cc":{"eta":0.9},"topo":{"oversub":1}}`))
	f.Add([]byte(`{"kind":"hop","scheme":"DCQCN","hop":"middle"}`))
	f.Add([]byte(`{"kind":"fct","scheme":"FNCC","load":1e-3,"seed":9007199254740993}`))
	// Telemetry-bearing specs: packet probes, fluid probes, and a block that
	// needs normalization (duplicate probes) plus a trace cap.
	f.Add([]byte(`{"kind":"incast","scheme":"FNCC","telemetry":{"interval_us":10,"probes":["queue","host"]}}`))
	f.Add([]byte(`{"kind":"incast","backend":"fluid","scheme":"FNCC","telemetry":{"interval_us":50,"probes":["rate","link"]}}`))
	f.Add([]byte(`{"kind":"micro","scheme":"DCQCN","telemetry":{"interval_us":5,"probes":["cc","queue","cc"],"trace_cap":256}}`))
	// Size knobs past the bounds; at k = 4194304, k^3 wraps int64 to 0.
	f.Add([]byte(`{"kind":"permutation","scheme":"FNCC","topo":{"k":4194304},"workload":{"shift":1}}`))
	f.Add([]byte(`{"kind":"fct","scheme":"FNCC","topo":{"k":4194304}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return // malformed JSON / unknown fields: out of scope
		}
		if err := sp.Validate(); err != nil {
			return // invalid specs need not round-trip
		}
		c1, err := sp.Canonical()
		if err != nil {
			t.Fatalf("valid spec failed to canonicalize: %v\nspec: %s", err, data)
		}
		h1 := sp.Hash()

		sp2, err := ParseSpec(c1)
		if err != nil {
			t.Fatalf("canonical encoding does not re-parse: %v\ncanonical: %s", err, c1)
		}
		if err := sp2.Validate(); err != nil {
			t.Fatalf("canonical encoding does not re-validate: %v\ncanonical: %s", err, c1)
		}
		c2, err := sp2.Canonical()
		if err != nil {
			t.Fatalf("re-canonicalization failed: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical encoding is not a fixed point:\n first: %s\nsecond: %s", c1, c2)
		}
		if h2 := sp2.Hash(); h2 != h1 {
			t.Fatalf("hash changed across canonical round-trip: %s -> %s", h1, h2)
		}
	})
}
