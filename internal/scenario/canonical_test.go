package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// Values each field kind takes in TestCanonicalMatchesJSON: strings that
// need no escaping and strings that need every kind of it (HTML and JSON
// metacharacters, control bytes, DEL, non-ASCII, line separators, invalid
// UTF-8), and numbers at encoding/json's 'f'/'e' switch points and extremes.
var (
	canonStrings = []string{"fct", `"`, `\`, "<", ">", "&", "\x00", "\n", "\x1f", "\x7f", "ü€", "\u2028\u2029",
		"\xff", "\x80", `a"b\c<d>e&f` + "\t\xc3"}
	canonInts   = []int64{7, -1, math.MaxInt64, math.MinInt64}
	canonFloats = []float64{0.25, -1.5, 1e-7, 1e-6, 1e20, 1e21, -1e21, 123456789e-15, 5e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, math.Copysign(0, -1)}
)

// TestCanonicalMatchesJSON is the encoder's field-coverage guard: it sets
// each field of Spec, TopoSpec and WorkloadSpec to non-zero values one at a
// time, and then all of them at once, and compares appendCanonical with
// json.Marshal of the spec without its telemetry block, which is never
// encoded. A field added to one of these structs without a line in
// appendCanonical fails here instead of silently moving cache identities.
func TestCanonicalMatchesJSON(t *testing.T) {
	var sp Spec
	check := func(what string) {
		t.Helper()
		oracle := sp
		oracle.Telemetry = nil
		want, err := json.Marshal(&oracle)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", what, err)
		}
		got, err := appendCanonical(nil, &sp)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: encoder differs from encoding/json:\n got %s (%v)\nwant %s", what, got, err, want)
		}
	}
	check("zero spec")
	leaves := eachField(t, "", reflect.ValueOf(&sp).Elem(), false, check)
	if leaves < 23 {
		t.Fatalf("visited %d fields, want every field of the three encoded spec structs", leaves)
	}
	eachField(t, "", reflect.ValueOf(&sp).Elem(), true, func(string) {})
	sp.Telemetry = &TelemetrySpec{IntervalUs: 10, Probes: canonStrings, TraceCap: 7}
	check("every field set")
}

// eachField walks the struct v depth first. For each field that holds a
// value it sets the field to each of the test values in turn, calls visit,
// and, unless keep, puts it back to zero. It skips Spec.Telemetry, which
// the encoder leaves out. It returns how many fields it set.
func eachField(t *testing.T, path string, v reflect.Value, keep bool, visit func(string)) int {
	t.Helper()
	leaves := 0
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		if name == "Telemetry" {
			continue
		}
		switch f.Kind() {
		case reflect.Struct:
			leaves += eachField(t, name+".", f, keep, visit)
			continue
		case reflect.String:
			for _, s := range canonStrings {
				f.SetString(s)
				visit(name + " = " + s)
			}
		case reflect.Int, reflect.Int64:
			for _, n := range canonInts {
				f.SetInt(n)
				visit(name)
			}
		case reflect.Float64:
			for _, x := range canonFloats {
				f.SetFloat(x)
				visit(name)
			}
		case reflect.Map:
			if f.Type() != reflect.TypeOf(map[string]float64(nil)) {
				t.Fatalf("%s: a %s map; teach appendCanonical and this test its type", name, f.Type())
			}
			m := map[string]float64{}
			f.Set(reflect.ValueOf(m))
			visit(name + " = empty map")
			for i, s := range canonStrings {
				m[s] = canonFloats[i%len(canonFloats)]
			}
			visit(name)
		default:
			t.Fatalf("%s: kind %s; teach appendCanonical and this test to set it", name, f.Kind())
		}
		leaves++
		if !keep {
			f.SetZero()
		}
	}
	return leaves
}

// TestCanonicalRefusesNonFinite: JSON has no NaN or infinity, so
// appendCanonical returns an error for one in any float field, and Hash, which Validate
// guards, panics.
func TestCanonicalRefusesNonFinite(t *testing.T) {
	sets := map[string]func(*Spec, float64){
		"load":         func(s *Spec, v float64) { s.Load = v },
		"topo.oversub": func(s *Spec, v float64) { s.Topo.Oversub = v },
		"cc.alpha":     func(s *Spec, v float64) { s.CC = map[string]float64{"alpha": v, "beta": 0.5} },
	}
	for name, set := range sets {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			sp := Spec{Kind: KindFCT, Scheme: "FNCC"}
			set(&sp, v)
			n := sp.Normalized()
			if c, err := appendCanonical(nil, &n); err == nil {
				t.Errorf("%s = %v: Canonical = %s, want an error", name, v, c)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s = %v: Hash did not panic", name, v)
					}
				}()
				sp.Hash()
			}()
		}
	}
}
