package sweepd

import (
	"bytes"
	"net/http"
	"testing"
)

// FuzzSubmitBody drives arbitrary bodies through the submit path's body →
// points step (read, decode, bound, expand), which runs without a pool: it
// must never panic, refuse with a client-error status, and accept only
// points that validate again as they stand, never more of them than
// maxSubmitPoints.
func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte(`{"base":{"kind":"micro","scheme":"FNCC","duration_us":20000},"grid":{"schemes":["FNCC","HPCC","DCQCN","RoCC"]}}`))
	f.Add([]byte(`{"base":{"kind":"incast","scheme":"FNCC"},"grid":{"backends":["packet","fluid"],"sizes":[4,8]}}`))
	f.Add(overBoundBody())
	f.Add([]byte(`{"base":{"kind":"permutation","scheme":"FNCC","topo":{"k":4194304},"workload":{"shift":1}}}`))
	f.Add([]byte(`{"base":{"kind":"fct","scheme":"FNCC","topo":{"k":4194304}}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		norms, code, err := submitNorms(bytes.NewReader(body))
		if err != nil {
			if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with status %d: %v", code, err)
			}
			return
		}
		if len(norms) == 0 || len(norms) > maxSubmitPoints {
			t.Fatalf("accepted %d points, want 1..%d", len(norms), maxSubmitPoints)
		}
		for i, n := range norms {
			if err := n.Spec().Validate(); err != nil {
				t.Fatalf("accepted point %d fails Validate: %v", i, err)
			}
		}
	})
}
