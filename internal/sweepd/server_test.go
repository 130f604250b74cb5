package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// slowSpec is a micro run long enough (~50 ms wall) that streaming
// assertions can observe a sweep mid-flight without sleeping.
func slowSpec(scheme string) scenario.Spec {
	return scenario.Spec{Kind: scenario.KindMicro, Scheme: scheme, DurationUs: 2000}
}

// fastSpec is the cheapest distinct-per-scheme job for plumbing tests.
func fastSpec(scheme string) scenario.Spec {
	return scenario.Spec{Kind: scenario.KindMicro, Scheme: scheme, DurationUs: 50}
}

func newTestServer(t *testing.T, cacheDir string, workers int) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	runner := &harness.Runner{CacheDir: cacheDir, Obs: reg, Tracer: obs.NewTracer()}
	srv, err := New(Config{Runner: runner, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Drain(10 * time.Second) })
	return srv, ts, reg
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest) SubmitResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit status %d: %v", resp.StatusCode, e)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamAll reads the whole NDJSON result stream.
func streamAll(t *testing.T, ts *httptest.Server, path string) []Point {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pts []Point
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var p Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestStreamBeforeCompletion is the service's defining property: GET
// /sweeps/{id}/results delivers points while the sweep is still running.
// One worker and four ~50 ms jobs leave a wide window — after the first
// streamed point, at least two jobs have not started yet.
func TestStreamBeforeCompletion(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir(), 1)
	sr := submit(t, ts, SubmitRequest{
		Base: slowSpec("FNCC"),
		Grid: harness.Grid{Schemes: []string{"FNCC", "HPCC", "DCQCN", "RoCC"}},
	})
	if sr.Points != 4 {
		t.Fatalf("points = %d, want 4", sr.Points)
	}
	resp, err := http.Get(ts.URL + sr.Results)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		t.Fatalf("stream ended before first point: %v", sc.Err())
	}
	var first Point
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Error != "" || first.Row == nil {
		t.Fatalf("first point = %+v", first)
	}
	// The stream delivered a point; the sweep must still be running.
	if st := getStatus(t, ts, sr.ID); st.Finished {
		t.Errorf("sweep already finished when the first point arrived: %+v", st)
	}
	rest := 1
	for sc.Scan() {
		rest++
	}
	if rest != 4 {
		t.Fatalf("streamed %d points, want 4", rest)
	}
	if st := getStatus(t, ts, sr.ID); !st.Finished || st.Done != 4 || st.Errored != 0 {
		t.Errorf("final status %+v", st)
	}
}

// TestResubmitAllCached: the same sweep twice is one set of simulations
// and one full replay from cache — the exactly-once spec-hash contract
// surfaced at the HTTP layer.
func TestResubmitAllCached(t *testing.T) {
	srv, ts, reg := newTestServer(t, t.TempDir(), 4)
	req := SubmitRequest{
		Base: fastSpec("FNCC"),
		Grid: harness.Grid{Schemes: []string{"FNCC", "HPCC"}},
	}
	sr1 := submit(t, ts, req)
	pts1 := streamAll(t, ts, sr1.Results)
	if len(pts1) != 2 {
		t.Fatalf("first sweep streamed %d points", len(pts1))
	}
	missesAfterFirst := reg.Snapshot().Counters[harness.MetricCacheMisses]
	if missesAfterFirst != 2 {
		t.Fatalf("first sweep misses = %d, want 2", missesAfterFirst)
	}

	sr2 := submit(t, ts, req)
	pts2 := streamAll(t, ts, sr2.Results)
	if len(pts2) != 2 {
		t.Fatalf("resubmit streamed %d points", len(pts2))
	}
	for _, p := range pts2 {
		if !p.Cached {
			t.Errorf("resubmitted point %d not served from cache", p.Index)
		}
	}
	if got := reg.Snapshot().Counters[harness.MetricCacheMisses]; got != missesAfterFirst {
		t.Errorf("resubmit simulated: misses %d -> %d", missesAfterFirst, got)
	}
	if st := getStatus(t, ts, sr2.ID); st.Cached != 2 {
		t.Errorf("resubmit status %+v, want cached=2", st)
	}
	// Metric maps must replay bit-identically. Points stream in completion
	// order, so match them by sweep index, not stream position.
	byIdx := map[int]Point{}
	for _, p := range pts1 {
		byIdx[p.Index] = p
	}
	for _, p := range pts2 {
		orig, ok := byIdx[p.Index]
		if !ok {
			t.Fatalf("replayed point %d missing from first run", p.Index)
		}
		for k, v := range orig.Row.Metrics {
			if p.Row.Metrics[k] != v {
				t.Errorf("point %d metric %s = %v, want %v", p.Index, k, p.Row.Metrics[k], v)
			}
		}
	}
	_ = srv
}

// TestConcurrentClientsOneSimulation: N clients submitting the same spec
// at the same moment produce exactly one simulation — the singleflight
// layer observed through the HTTP front end, verified by the coalesced/
// miss counters. Runs under -race in CI.
func TestConcurrentClientsOneSimulation(t *testing.T) {
	_, ts, reg := newTestServer(t, t.TempDir(), 8)
	const clients = 6
	var wg sync.WaitGroup
	ids := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(SubmitRequest{Base: slowSpec("FNCC")})
			resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var sr SubmitResponse
			json.NewDecoder(resp.Body).Decode(&sr)
			ids[i] = sr.ID
		}(i)
	}
	wg.Wait()
	// Stream every sweep to completion.
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submit failed")
		}
		pts := streamAll(t, ts, "/sweeps/"+id+"/results")
		if len(pts) != 1 || pts[0].Error != "" {
			t.Fatalf("sweep %s: %+v", id, pts)
		}
	}
	s := reg.Snapshot()
	misses := s.Counters[harness.MetricCacheMisses]
	coalesced := s.Counters[harness.MetricCacheCoalesced]
	hits := s.Counters[harness.MetricCacheHits]
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 simulation for %d clients", misses, clients)
	}
	if hits+coalesced != clients-1 {
		t.Errorf("hits=%d coalesced=%d, want %d covered without simulating",
			hits, coalesced, clients-1)
	}
}

// TestDrainInterruptsAndResumes: draining mid-sweep finishes in-flight
// jobs, skips the rest, marks the sweep interrupted — and a fresh server
// on the same cache dir serves the finished prefix as hits.
func TestDrainInterruptsAndResumes(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	runner := &harness.Runner{CacheDir: dir, Obs: reg}
	srv, err := New(Config{Runner: runner, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr := submit(t, ts, SubmitRequest{
		Base: slowSpec("FNCC"),
		Grid: harness.Grid{Schemes: []string{"FNCC", "HPCC", "DCQCN", "RoCC"}},
	})
	// Wait for the first point so the drain lands mid-sweep.
	resp, err := http.Get(ts.URL + sr.Results)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		t.Fatal("no first point before drain")
	}
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	st := getStatus(t, ts, sr.ID)
	if !st.Finished || !st.Interrupted {
		t.Fatalf("drained sweep status %+v, want finished+interrupted", st)
	}
	if st.Done < 1 || st.Done+st.Skipped != st.Total || st.Running != 0 {
		t.Fatalf("drained sweep accounting %+v", st)
	}
	// New submissions are refused while drained.
	body, _ := json.Marshal(SubmitRequest{Base: fastSpec("FNCC")})
	r2, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", r2.StatusCode)
	}

	// Restart on the same cache dir: the finished prefix is all hits.
	reg2 := obs.NewRegistry()
	runner2 := &harness.Runner{CacheDir: dir, Obs: reg2}
	srv2, err := New(Config{Runner: runner2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Drain(10 * time.Second)
	sr2 := submit(t, ts2, SubmitRequest{
		Base: slowSpec("FNCC"),
		Grid: harness.Grid{Schemes: []string{"FNCC", "HPCC", "DCQCN", "RoCC"}},
	})
	pts := streamAll(t, ts2, sr2.Results)
	if len(pts) != 4 {
		t.Fatalf("resumed sweep streamed %d points", len(pts))
	}
	s2 := reg2.Snapshot()
	if int(s2.Counters[harness.MetricCacheHits]) < st.Done {
		t.Errorf("resume served %d hits, want >= %d (drained jobs lost their cache writes)",
			s2.Counters[harness.MetricCacheHits], st.Done)
	}
	if got := s2.Counters[harness.MetricCacheMisses]; got != int64(4-st.Done) {
		t.Errorf("resume simulated %d points, want %d", got, 4-st.Done)
	}
}

// TestSubmitValidation: malformed bodies and unknown resources get typed
// JSON errors with the right status codes, never a panic or a hang.
func TestSubmitValidation(t *testing.T) {
	srv, ts, _ := newTestServer(t, "", 2)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{not json", http.StatusBadRequest},
		{"empty body", "{}", http.StatusBadRequest},
		{"invalid spec", `{"base": {"kind": "no-such-kind", "scheme": "FNCC"}}`, http.StatusBadRequest},
		{"bad grid point", `{"base": {"kind": "fct", "scheme": "FNCC", "workload": {"cdf": "websearch"}, "load": 0.5, "duration_us": 100}, "grid": {"sizes": [5]}}`, http.StatusBadRequest},
		// Refused by Validate, not by every point of an accepted sweep.
		{"one sender", `{"base": {"kind": "micro", "scheme": "FNCC", "topo": {"senders": 1}}}`, http.StatusBadRequest},
		// A few dozen bytes describing a fabric too large to build; at
		// k = 4194304, k^3 wraps int64 to 0.
		{"k = 4194304", `{"base":{"kind":"permutation","scheme":"FNCC","topo":{"k":4194304},"workload":{"shift":1}}}`, http.StatusBadRequest},
		{"fanout 2^40", `{"base":{"kind":"incast","scheme":"FNCC","workload":{"fanout":1099511627776}}}`, http.StatusBadRequest},
		{"fct on k = 65536", `{"base":{"kind":"fct","scheme":"FNCC","topo":{"k":65536}}}`, http.StatusBadRequest},
		{"alltoall on k = 64", `{"base":{"kind":"alltoall","scheme":"FNCC","topo":{"k":64}}}`, http.StatusBadRequest},
		// About 8.4e8 Poisson arrivals, generated up front by the run.
		{"fct for 1000 s", `{"base":{"kind":"fct","scheme":"FNCC","duration_us":1000000000,"load":0.9}}`, http.StatusBadRequest},
		// A size below 1 is refused, not read as "keep the base's".
		{"size -4", `{"base":{"kind":"alltoall","scheme":"FNCC"},"grid":{"sizes":[-4]}}`, http.StatusBadRequest},
		// A point listed twice would run once and stream twice.
		{"seeds 1,1", `{"base":{"kind":"alltoall","scheme":"FNCC"},"grid":{"seeds":[1,1]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.want, e)
		}
		if e["error"] == "" {
			t.Errorf("%s: no error body", tc.name)
		}
	}
	for _, sp := range srv.tracer.Active() {
		if sp.Name == "http" && sp.Attrs["path"] == "/sweeps" {
			t.Errorf("request span left open by a refused submit: %+v", sp)
		}
	}
	for _, path := range []string{"/sweeps/s-999", "/sweeps/s-999/results"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestTelemetryRefused: a sweep with a telemetry block is refused, over HTTP
// with 400 and through Submit, with an error naming the block, and nothing
// is submitted: a served point streams its metrics only.
func TestTelemetryRefused(t *testing.T) {
	srv, ts, reg := newTestServer(t, t.TempDir(), 2)
	body := `{"base":{"kind":"micro","scheme":"FNCC","duration_us":50,"telemetry":{"interval_us":10,"probes":["queue"]}}}`
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], "telemetry") {
		t.Errorf("POST: status %d (%v), want 400 naming telemetry", resp.StatusCode, e)
	}
	sp := fastSpec("FNCC")
	sp.Telemetry = &scenario.TelemetrySpec{IntervalUs: 10, Probes: []string{"queue"}}
	if _, err := srv.Submit([]scenario.Spec{fastSpec("HPCC"), sp}); err == nil || !strings.Contains(err.Error(), "telemetry") {
		t.Errorf("Submit: err = %v, want one naming telemetry", err)
	}
	if n := len(srv.statuses()); n != 0 || reg.Snapshot().Counters[MetricSweepsSubmitted] != 0 {
		t.Errorf("%d sweeps listed, %d submitted after two refusals", n, reg.Snapshot().Counters[MetricSweepsSubmitted])
	}
}

// overBoundBody is a submit body whose grid is one point over
// maxSubmitPoints: 65,537 seeds of a valid base, about 130 KB.
func overBoundBody() []byte {
	return []byte(`{"base":{"kind":"fct","scheme":"FNCC","workload":{"cdf":"websearch"},"load":0.5,"duration_us":100},` +
		`"grid":{"seeds":[` + strings.Repeat("1,", maxSubmitPoints) + `1]}}`)
}

// TestSubmitOverBound: a grid one point over the bound is refused with 413
// before it is expanded, and the server goes on answering.
func TestSubmitOverBound(t *testing.T) {
	_, ts, _ := newTestServer(t, "", 2)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(overBoundBody()))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || e["error"] == "" {
		t.Fatalf("over-bound grid: status %d (%v), want 413 with an error body", resp.StatusCode, e)
	}
	resp, err = http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(list) != 0 {
		t.Fatalf("GET /sweeps after the refusal: status %d, %d sweeps, %v", resp.StatusCode, len(list), err)
	}
}

// TestServerKeepsNoFinishedSpans: the server's tracer tracks what is open,
// for /progress, and files nothing that ends — request spans and job spans
// alike — so polling does not grow the heap.
func TestServerKeepsNoFinishedSpans(t *testing.T) {
	srv, ts, _ := newTestServer(t, t.TempDir(), 2)
	if srv.tracer == nil {
		t.Fatal("server has no tracer: it must use its Runner's")
	}
	h := srv.Handler()
	for i := 0; i < 20000; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/progress", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %d: status %d", i, rec.Code)
		}
	}
	sr := submit(t, ts, SubmitRequest{Base: fastSpec("FNCC")})
	streamAll(t, ts, sr.Results)
	if n := len(srv.tracer.Spans()); n != 0 {
		t.Errorf("server tracer holds %d finished spans, want 0", n)
	}
	for _, sp := range srv.tracer.Active() {
		if sp.Name != "http" {
			t.Errorf("span %q still open after the sweep finished", sp.Name)
		}
	}
}

// TestProgressAndList: /progress carries per-sweep rows and /sweeps lists
// submissions in order; /debug/vars serves the registry the runner feeds.
func TestProgressAndList(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir(), 2)
	a := submit(t, ts, SubmitRequest{Base: fastSpec("FNCC")})
	b := submit(t, ts, SubmitRequest{Base: fastSpec("HPCC")})
	streamAll(t, ts, a.Results)
	streamAll(t, ts, b.Results)

	resp, err := http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var prog struct {
		Sweeps []Status `json:"sweeps"`
	}
	err = json.NewDecoder(resp.Body).Decode(&prog)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Sweeps) != 2 || prog.Sweeps[0].ID != a.ID || prog.Sweeps[1].ID != b.ID {
		t.Fatalf("/progress sweeps = %+v", prog.Sweeps)
	}
	for _, st := range prog.Sweeps {
		if !st.Finished || st.Done != 1 {
			t.Errorf("sweep %s not settled in /progress: %+v", st.ID, st)
		}
	}

	lresp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	err = json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if err != nil || len(list) != 2 {
		t.Fatalf("/sweeps list = %d entries, err %v", len(list), err)
	}

	vresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(vresp.Body).Decode(&snap)
	vresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters[MetricSweepsSubmitted] != 2 {
		t.Errorf("%s = %d, want 2", MetricSweepsSubmitted, snap.Counters[MetricSweepsSubmitted])
	}
	if snap.Counters[MetricRequests] == 0 {
		t.Error("request middleware recorded nothing")
	}
	if snap.Histograms[MetricRequestMs].Count == 0 {
		t.Error("request latency histogram empty")
	}
}

// TestResultsResume: ?from=N replays only the tail, and a post-completion
// stream replays everything.
func TestResultsResume(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir(), 2)
	sr := submit(t, ts, SubmitRequest{
		Base: fastSpec("FNCC"),
		Grid: harness.Grid{Schemes: []string{"FNCC", "HPCC", "DCQCN"}},
	})
	all := streamAll(t, ts, sr.Results)
	if len(all) != 3 {
		t.Fatalf("streamed %d points", len(all))
	}
	tail := streamAll(t, ts, sr.Results+"?from=2")
	if len(tail) != 1 || tail[0].Index != all[2].Index {
		t.Fatalf("resume tail = %+v", tail)
	}
	if bad := streamAllStatus(t, ts, sr.Results+"?from=-1"); bad != http.StatusBadRequest {
		t.Errorf("from=-1 status = %d, want 400", bad)
	}
}

func streamAllStatus(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestErroredPointStreams: a grid with a point that cannot run is refused at
// admission — the service never wastes workers on a doomed sweep — and
// counts as no submitted sweep.
func TestErroredPointStreams(t *testing.T) {
	_, ts, reg := newTestServer(t, "", 2)
	sr := SubmitRequest{Base: fastSpec("FNCC"), Grid: harness.Grid{Schemes: []string{"FNCC", "no-such-scheme"}}}
	body, _ := json.Marshal(sr)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit with invalid point = %d, want 400", resp.StatusCode)
	}
	if got := reg.Snapshot().Counters[MetricSweepsSubmitted]; got != 0 {
		t.Errorf("rejected sweep counted as submitted: %d", got)
	}
}

// TestSubmitUnknownFieldRefused: a body field the service does not know —
// a typo at the top level or inside the grid, or the explicit spec list it
// no longer takes — answers 400 naming the field, and submits nothing. A
// lenient decode ran the typo'd body as a one-point sweep of its base.
func TestSubmitUnknownFieldRefused(t *testing.T) {
	_, ts, reg := newTestServer(t, "", 2)
	base := `"base":{"kind":"micro","scheme":"FNCC","duration_us":50}`
	for field, body := range map[string]string{
		"grd":   `{` + base + `,"grd":{"schemes":["HPCC","DCQCN"]}}`,
		"seed":  `{` + base + `,"grid":{"schemes":["HPCC","DCQCN"],"seed":[1,2]}}`,
		"specs": `{"specs":[{"kind":"micro","scheme":"HPCC"}]}`,
	} {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], `"`+field+`"`) {
			t.Errorf("body with %q: status %d (%v), want 400 naming the field", field, resp.StatusCode, e)
		}
	}
	if got := reg.Snapshot().Counters[MetricSweepsSubmitted]; got != 0 {
		t.Errorf("%d sweeps submitted, want 0", got)
	}
}

// TestSpecsBodyRefusedCheaply: a 1 MB body of empty explicit specs is
// refused as an unknown field, before any of them is decoded into a spec
// (that decode took over 400 MB).
func TestSpecsBodyRefusedCheaply(t *testing.T) {
	body := []byte(`{"specs":[{}` + strings.Repeat(`,{}`, (maxSubmitBytes-20)/3) + `]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, code, err := submitNorms(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest || err == nil {
		t.Fatalf("1 MB specs body: status %d, %v; want 400", code, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("refusing a %d-byte body allocated %d bytes, want under 16 MB", len(body), alloc)
	}
}

// TestFinishedSweepsEvicted: the sweep table keeps at most
// maxFinishedSweeps finished sweeps; older ids answer 404 and the newest
// still replay in full.
func TestFinishedSweepsEvicted(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir(), 2)
	const extra = 3
	var last SubmitResponse
	for i := 0; i < maxFinishedSweeps+extra; i++ {
		last = submit(t, ts, SubmitRequest{Base: fastSpec("FNCC")})
		// Stream to the end so every sweep is finished before the next
		// submit decides what to evict.
		if pts := streamAll(t, ts, last.Results); len(pts) != 1 || pts[0].Error != "" {
			t.Fatalf("sweep %s: %+v", last.ID, pts)
		}
	}
	resp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Eviction runs at submit, before the new sweep joins the table.
	if len(list) != maxFinishedSweeps+1 || list[len(list)-1].ID != last.ID {
		t.Fatalf("table holds %d sweeps ending at %s, want %d ending at %s",
			len(list), list[len(list)-1].ID, maxFinishedSweeps+1, last.ID)
	}
	if list[0].ID != fmt.Sprintf("s-%d", extra) {
		t.Errorf("oldest retained sweep = %s, want s-%d", list[0].ID, extra)
	}
	if code := streamAllStatus(t, ts, "/sweeps/s-1/results"); code != http.StatusNotFound {
		t.Errorf("evicted sweep's results = %d, want 404", code)
	}
	if pts := streamAll(t, ts, last.Results); len(pts) != 1 || !pts[0].Cached {
		t.Errorf("newest sweep replay = %+v", pts)
	}
}
