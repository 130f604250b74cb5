package harness_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// TestPanickingPointStreams: a point whose simulation panics is one errored
// point of the sweep service above the Runner. The worker survives it, the
// sweep finishes with its good point intact, and the server takes the next
// submit — including the same hash, whose lock the failed job released. It
// lives here, not in sweepd, because the panic comes in through the
// unexported Runner.run seam: no spec that validates reaches one.
func TestPanickingPointStreams(t *testing.T) {
	reg := obs.NewRegistry()
	runner := &harness.Runner{CacheDir: t.TempDir(), Obs: reg, Tracer: obs.NewTracer()}
	runner.SetRun(func(sp scenario.Spec) (*scenario.Result, error) {
		if sp.Scheme == "HPCC" {
			panic("modelling bug: negative propagation delay")
		}
		return scenario.Run(sp)
	})
	srv, err := sweepd.New(sweepd.Config{Runner: runner, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(10 * time.Second)

	micro := func(scheme string) scenario.Spec {
		return scenario.Spec{Kind: scenario.KindMicro, Scheme: scheme, DurationUs: 50}
	}
	body, _ := json.Marshal(sweepd.SubmitRequest{Base: micro("HPCC"), Grid: harness.Grid{Schemes: []string{"HPCC", "FNCC"}}})
	for round := 0; round < 2; round++ {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr sweepd.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d submit: status %d, %v", round, resp.StatusCode, err)
		}

		stream, err := http.Get(ts.URL + sr.Results)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for sc := bufio.NewScanner(stream.Body); sc.Scan(); seen++ {
			var p sweepd.Point
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			switch p.Index {
			case 0:
				if !strings.HasPrefix(p.Error, "harness: simulation panicked:") || p.Row != nil {
					t.Errorf("round %d panicking point = %+v", round, p)
				}
			case 1:
				if p.Error != "" || p.Row == nil {
					t.Errorf("round %d good point = %+v", round, p)
				}
			}
		}
		stream.Body.Close()
		if seen != 2 {
			t.Fatalf("round %d streamed %d points, want 2", round, seen)
		}

		resp, err = http.Get(ts.URL + "/sweeps/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st sweepd.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || !st.Finished || st.Done != 1 || st.Errored != 1 {
			t.Errorf("round %d status %+v (%v), want finished with 1 done + 1 errored", round, st, err)
		}
	}
	if got := reg.Snapshot().Counters[harness.MetricJobsErrored]; got != 2 {
		t.Errorf("%s = %d, want 2", harness.MetricJobsErrored, got)
	}
}
