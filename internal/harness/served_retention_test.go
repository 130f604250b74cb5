package harness_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// TestFinishedSweepsBoundedByPoints: the sweep service retains finished
// sweeps for replay up to one submit's worth of points (65,536) in all, not
// only up to 64 sweeps. Finished sweeps of 40,000 and 30,000 points are over
// it, so the next submit evicts the older and keeps the newer.
func TestFinishedSweepsBoundedByPoints(t *testing.T) {
	r := &harness.Runner{}
	r.SetRun(func(sp scenario.Spec) (*scenario.Result, error) {
		return &scenario.Result{Spec: sp, Metrics: map[string]float64{}}, nil
	})
	srv, err := sweepd.New(sweepd.Config{Runner: r, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(10 * time.Second)

	// submit posts a sweep of n seeds and streams it to the end, so it is
	// finished before the next submit decides what to evict.
	submit := func(n int) sweepd.SubmitResponse {
		t.Helper()
		req := sweepd.SubmitRequest{
			Base: scenario.Spec{Kind: scenario.KindFCT, Scheme: "FNCC", Topo: scenario.TopoSpec{K: 4},
				Workload: scenario.WorkloadSpec{CDF: "websearch"}, Load: 0.5, DurationUs: 100},
		}
		for s := 1; s <= n; s++ {
			req.Grid.Seeds = append(req.Grid.Seeds, int64(s))
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr sweepd.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d points: status %d, %v", n, resp.StatusCode, err)
		}
		stream, err := http.Get(ts.URL + sr.Results)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for sc := bufio.NewScanner(stream.Body); sc.Scan(); lines++ {
		}
		stream.Body.Close()
		if lines != n {
			t.Fatalf("sweep %s streamed %d points, want %d", sr.ID, lines, n)
		}
		return sr
	}
	older, newer := submit(40_000), submit(30_000)
	last := submit(1)

	resp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list []sweepd.Status
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, st := range list {
		ids = append(ids, st.ID)
	}
	if len(ids) != 2 || ids[0] != newer.ID || ids[1] != last.ID {
		t.Errorf("table holds %v, want [%s %s]", ids, newer.ID, last.ID)
	}
	resp, err = http.Get(ts.URL + older.Results)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted sweep's results = %d, want 404", resp.StatusCode)
	}
}
