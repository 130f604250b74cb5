package sweepd

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// FuzzSubmitBody drives arbitrary bodies through the submit path's body →
// points step (read, decode, bound, expand) and the points check that
// Server.start runs, both without a pool: it must never panic, refuse with a
// client-error status, and accept only points that validate again as they
// stand, never more of them than maxSubmitPoints; the check refuses a sweep
// exactly when one of its points has a telemetry block, naming it.
func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte(`{"base":{"kind":"micro","scheme":"FNCC","duration_us":20000},"grid":{"schemes":["FNCC","HPCC","DCQCN","RoCC"]}}`))
	f.Add([]byte(`{"base":{"kind":"incast","scheme":"FNCC"},"grid":{"backends":["packet","fluid"],"sizes":[4,8]}}`))
	f.Add(overBoundBody())
	f.Add([]byte(`{"base":{"kind":"permutation","scheme":"FNCC","topo":{"k":4194304},"workload":{"shift":1}}}`))
	f.Add([]byte(`{"base":{"kind":"fct","scheme":"FNCC","topo":{"k":4194304}}}`))
	f.Add([]byte(`{"base":{"kind":"incast","scheme":"FNCC","telemetry":{"interval_us":10,"probes":["queue"]}},"grid":{"backends":["packet"]}}`))
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
		probed := false
		for i, n := range norms {
			if err := n.Spec().Validate(); err != nil {
				t.Fatalf("accepted point %d fails Validate: %v", i, err)
			}
			probed = probed || n.Spec().Telemetry != nil
		}
		if err := checkPoints(norms); (err != nil) != probed || err != nil && !strings.Contains(err.Error(), "telemetry") {
			t.Fatalf("a sweep with telemetry %v: checkPoints = %v", probed, err)
		}
	})
}
