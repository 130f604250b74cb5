package sweepd

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
)

// benchSweep is the sweep both benchmarks run: four schemes over a ~50 ms
// micro point, no cache dir, so simulation dominates and the ratio
// isolates the service envelope (HTTP submit, queueing, NDJSON streaming).
func benchSweep() harness.Sweep {
	return harness.Sweep{
		Base: scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 2000},
		Grid: harness.Grid{Schemes: []string{"FNCC", "HPCC", "DCQCN", "RoCC"}},
	}
}

// BenchmarkSweepDirect is the baseline: the same sweep through the Runner
// with no server in front.
func BenchmarkSweepDirect(b *testing.B) {
	specs, err := benchSweep().Expand()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &harness.Runner{Workers: 4}
		if _, err := r.RunAll(specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepServe runs the identical sweep through the full service
// path — HTTP submit, the shared worker pool, and an NDJSON stream read to
// completion. The benchguard serve_overhead gate holds this within 5% of
// BenchmarkSweepDirect: the server must stay an envelope, not a tax.
func BenchmarkSweepServe(b *testing.B) {
	sweep := benchSweep()
	specs, err := sweep.Expand()
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
		if sc.Err() != nil || points != len(specs) {
			b.Fatalf("streamed %d points, err %v", points, sc.Err())
		}
	}
}
