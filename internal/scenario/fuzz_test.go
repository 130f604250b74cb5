package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/exp"
	"repro/internal/fluid"
)

// FuzzSpecRoundTrip: for any JSON that parses, appendCanonical writes the
// bytes json.Marshal writes for the normalized, name-stripped spec, valid or
// not. For any that also validates, Spec.Hash is Norm.Hash, Normalize of the
// Norm's spec is the Norm again, and the canonical encoding is a fixed point —
// decode → Normalize → Canonical → decode → Normalize → Canonical yields the
// same bytes, the same hash, and still validates. This is the invariant the
// harness cache rests on: if normalization were not idempotent, a spec could
// hash differently depending on whether it arrived from a user file or from a
// cached result's embedded spec.
func FuzzSpecRoundTrip(f *testing.F) {
	// Seed corpus: every registry scenario, both sparse (as registered) and
	// canonical (as cached), plus a kitchen-sink spec and some near-misses.
	for _, e := range Builtin() {
		f.Add(mustNorm(f, e.Spec).Canonical())
		raw, err := json.Marshal(e.Spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(mustNorm(f, goldenSpec()).Canonical())
	f.Add([]byte(`{"kind":"incast","backend":"fluid","scheme":"FNCC"}`))
	f.Add([]byte(`{"kind":"fct","scheme":"HPCC","cc":{"eta":0.9},"topo":{"oversub":1}}`))
	f.Add([]byte(`{"kind":"hop","scheme":"DCQCN","hop":"middle"}`))
	f.Add([]byte(`{"kind":"fct","scheme":"FNCC","load":1e-3,"seed":9007199254740993}`))
	// Telemetry-bearing specs, which hash as the specs without the block:
	// packet probes, fluid probes, and duplicate probes plus a trace cap.
	f.Add([]byte(`{"kind":"incast","scheme":"FNCC","telemetry":{"interval_us":10,"probes":["queue","host"]}}`))
	f.Add([]byte(`{"kind":"incast","backend":"fluid","scheme":"FNCC","telemetry":{"interval_us":50,"probes":["rate","link"]}}`))
	f.Add([]byte(`{"kind":"micro","scheme":"DCQCN","telemetry":{"interval_us":5,"probes":["cc","queue","cc"],"trace_cap":256}}`))
	// Size knobs past the bounds; at k = 4194304, k^3 wraps int64 to 0.
	f.Add([]byte(`{"kind":"permutation","scheme":"FNCC","topo":{"k":4194304},"workload":{"shift":1}}`))
	f.Add([]byte(`{"kind":"fct","scheme":"FNCC","topo":{"k":4194304}}`))
	// Strings the encoder hands to json.Marshal: HTML and JSON
	// metacharacters, control bytes, non-ASCII, line separators and invalid
	// UTF-8, in a cc key and in a probe name.
	f.Add([]byte(`{"kind":"fct","scheme":"FNCC","cc":{"<a&b>":1,"q\"\\":2,"\u0001\t":3}}`))
	f.Add([]byte(`{"kind":"incast","scheme":"FNCC","telemetry":{"probes":["<q>","\u007f","\u2028x"]}}`))
	f.Add([]byte("{\"kind\":\"fct\",\"scheme\":\"FNCC\",\"cc\":{\"\xff\xfe\":1,\"ü\":2}}"))
	f.Add([]byte("{\"kind\":\"incast\",\"scheme\":\"\xc3\",\"telemetry\":{\"probes\":[\"\x80\",\"é\"]}}"))
	// Floats at encoding/json's 'f'/'e' switch points and at the extremes.
	for _, v := range []string{"1e-7", "1e-6", "1e20", "1e21", "5e-324", "1.7976931348623157e308", "-0", "-1e-7", "-1e21"} {
		f.Add([]byte(`{"kind":"fct","scheme":"FNCC","load":` + v + `}`))
		f.Add([]byte(`{"kind":"fct","scheme":"FNCC","cc":{"alpha":` + v + `}}`))
	}

	// Each cc key at its default and at -0, on a scheme that takes it, and
	// the LHCS keys on FNCC-noLHCS, which refuses them.
	for _, k := range ccKeysSorted() {
		base := `{"kind":"fct","backend":"fluid","scheme":"FNCC","cc":{"` + k + `":`
		def := fluid.TauRTTs["FNCC"]
		var reader string // the last registry scheme that reads k
		for _, name := range exp.Schemes() {
			if takes(name, "", k) {
				reader = name
			}
		}
		if reader != "" {
			base = `{"kind":"hop","scheme":"` + reader + `","cc":{"` + k + `":`
			def = ccDefaults()[k]
		}
		f.Add([]byte(base + strconv.FormatFloat(def, 'g', -1, 64) + `}}`))
		f.Add([]byte(base + `-0}}`))
	}
	f.Add([]byte(`{"kind":"hop","scheme":"FNCC-noLHCS","cc":{"alpha":1.05}}`))
	f.Add([]byte(`{"kind":"hop","scheme":"FNCC-noLHCS","cc":{"beta":0.5}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return // malformed JSON / unknown fields: out of scope
		}
		n := sp.Normalized()
		n.Name, n.Telemetry = "", nil
		want, werr := json.Marshal(n)
		got, gerr := appendCanonical(nil, &n)
		if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("encoder differs from encoding/json:\n got %s (%v)\nwant %s (%v)\nspec: %q", got, gerr, want, werr, data)
		}
		norm, err := sp.Normalize()
		if err != nil {
			return // invalid specs need not round-trip
		}
		h1 := norm.Hash()
		if h := sp.Hash(); h != h1 {
			t.Fatalf("Spec.Hash %s != Norm.Hash %s\nspec: %s", h, h1, data)
		}
		plain := sp
		plain.Telemetry = nil
		if h := plain.Hash(); h != h1 {
			t.Fatalf("the spec hashes %s with its telemetry block, %s without\nspec: %s", h1, h, data)
		}
		if again, err := norm.Spec().Normalize(); err != nil || !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent: %+v (%v), want %+v\nspec: %s", again, err, norm, data)
		}
		c1 := norm.Canonical()
		sp2, err := ParseSpec(c1)
		if err != nil {
			t.Fatalf("canonical encoding does not re-parse: %v\ncanonical: %s", err, c1)
		}
		n2, err := sp2.Normalize()
		if err != nil {
			t.Fatalf("canonical encoding does not re-validate: %v\ncanonical: %s", err, c1)
		}
		if c2 := n2.Canonical(); !bytes.Equal(c1, c2) {
			t.Fatalf("canonical encoding is not a fixed point:\n first: %s\nsecond: %s", c1, c2)
		}
		if h2 := n2.Hash(); h2 != h1 {
			t.Fatalf("hash changed across canonical round-trip: %s -> %s", h1, h2)
		}
	})
}
