package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/benchpair"
	"repro/internal/harness"
	"repro/internal/scenario"
)

// BenchmarkServeOverhead pairs a four-scheme sweep of a ~50 ms micro point,
// with no cache dir so that simulation dominates, run through the full
// service path — HTTP submit, the shared worker pool, and an NDJSON stream
// read to completion — against the same sweep run on a pool of the same
// width with no server in front. Each side keeps its pool, and so its
// workers' run arenas, across pairs. CI bounds its ratio at <= 1.05: the
// server must stay an envelope, not a tax.
func BenchmarkServeOverhead(b *testing.B) {
	sweep := harness.Sweep{
		Base: scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 2000},
		Grid: harness.Grid{Schemes: []string{"FNCC", "HPCC", "DCQCN", "RoCC"}},
	}
	norms, err := sweep.ExpandNorms()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Runner: &harness.Runner{Workers: 4}, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)
	body, err := json.Marshal(sweep)
	if err != nil {
		b.Fatal(err)
	}
	served := func() {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var sr SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		stream, err := http.Get(ts.URL + sr.Results)
		if err != nil {
			b.Fatal(err)
		}
		sc := bufio.NewScanner(stream.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		points := 0
		for sc.Scan() {
			points++
		}
		stream.Body.Close()
		if sc.Err() != nil || points != len(norms) {
			b.Fatalf("streamed %d points, err %v", points, sc.Err())
		}
	}
	pool := (&harness.Runner{Workers: 4}).NewPool(4)
	defer pool.Close(time.Minute)
	direct := func() {
		<-pool.Start(norms, nil, nil, func(_ int, _ *scenario.Result, err error) {
			if err != nil {
				b.Error(err)
			}
		}).Settled()
	}
	b.ReportAllocs()
	benchpair.Ratio(b, served, direct)
}
