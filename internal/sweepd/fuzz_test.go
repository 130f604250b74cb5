package sweepd

import (
	"bytes"
	"net/http"
	"testing"
)

// FuzzSubmitBody drives arbitrary bodies through the submit path's body →
// specs step (read, decode, bound, expand), which runs without a pool: it
// must never panic, refuse with a client-error status, and accept only
// specs that validate, never more of them than maxSubmitPoints.
func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte(`{"base":{"kind":"micro","scheme":"FNCC","duration_us":20000},"grid":{"schemes":["FNCC","HPCC","DCQCN","RoCC"]}}`))
	f.Add([]byte(`{"base":{"kind":"incast","scheme":"FNCC"},"grid":{"backends":["packet","fluid"],"sizes":[4,8]}}`))
	f.Add(overBoundBody())
	f.Add([]byte(`{"base":{"kind":"permutation","scheme":"FNCC","topo":{"k":4194304},"workload":{"shift":1}}}`))
	f.Add([]byte(`{"base":{"kind":"fct","scheme":"FNCC","topo":{"k":4194304}}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, code, err := submitSpecs(bytes.NewReader(body))
		if err != nil {
			if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with status %d: %v", code, err)
			}
			return
		}
		if len(specs) == 0 || len(specs) > maxSubmitPoints {
			t.Fatalf("accepted %d specs, want 1..%d", len(specs), maxSubmitPoints)
		}
		for i, sp := range specs {
			if err := sp.Validate(); err != nil {
				t.Fatalf("accepted spec %d fails Validate: %v", i, err)
			}
		}
	})
}
