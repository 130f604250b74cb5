package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	c.Add(3)
	r.Counter("jobs").Add(2) // same instrument by name
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	h := r.Histogram("wall")
	for _, v := range []float64{1, 2, 4, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if s.Counters["jobs"] != 5 {
		t.Errorf("snapshot mismatch: %+v", s)
	}
	hs := s.Histograms["wall"]
	if hs.Count != 4 || hs.Sum != 1007 || hs.Min != 1 || hs.Max != 1000 {
		t.Errorf("hist snapshot = %+v", hs)
	}
	if hs.P50 < 1 || hs.P50 > 4 {
		t.Errorf("p50 = %g, want within [1,4]", hs.P50)
	}
	if hs.P99 != 1000 { // quantile clamps to observed max
		t.Errorf("p99 = %g, want 1000", hs.P99)
	}
}

// TestNilSafety is the zero-cost-off contract: every method on nil
// top-level handles and nil instruments must be a no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Histogram("x").Observe(1)
	if s := r.Snapshot(); len(s.Counters) != 0 || s.Counters == nil {
		t.Errorf("nil registry snapshot = %+v", s)
	}
	if names := r.CounterNames(); names != nil {
		t.Errorf("nil registry counter names = %v", names)
	}
	var tr *Tracer
	sp := tr.Start("job", nil)
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil span", sp)
	}
	sp.SetAttr("k", "v")
	sp.End()
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer spans = %v", got)
	}
	if got := tr.Active(); got != nil {
		t.Errorf("nil tracer active = %v", got)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.NaN())
	h.Observe(math.MaxFloat64)
	s := h.snapshot()
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	// No panic and quantiles stay finite-or-max is the contract here.
	if math.IsInf(s.P50, 0) {
		t.Errorf("p50 overflowed: %g", s.P50)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("sweep", nil)
	job := tr.Start("job", root)
	job.SetAttr("hash", "sc-123")
	phase := tr.Start("simulate", job)

	active := tr.Active()
	if len(active) != 3 {
		t.Fatalf("active = %d spans, want 3", len(active))
	}
	if active[0].Name != "sweep" || active[1].Attrs["hash"] != "sc-123" {
		t.Errorf("active order/attrs wrong: %+v", active)
	}

	phase.End()
	job.End()
	job.End() // double End files once
	root.End()
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("finished = %d spans, want 3", len(spans))
	}
	// Completion order: phase, job, root; parent links intact.
	if spans[0].Name != "simulate" || spans[0].Parent != job.ID {
		t.Errorf("phase span wrong: %+v", spans[0])
	}
	if spans[1].Parent != root.ID || spans[1].Attrs["hash"] != "sc-123" {
		t.Errorf("job span wrong: %+v", spans[1])
	}
	if spans[2].Parent != 0 {
		t.Errorf("root has parent %d", spans[2].Parent)
	}
	for _, s := range spans {
		if s.DurNs < 0 || s.StartUnixNs == 0 {
			t.Errorf("span %s timing not filled: %+v", s.Name, s)
		}
	}
	if len(tr.Active()) != 0 {
		t.Errorf("spans still open after End: %v", tr.Active())
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("sweep", nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := tr.Start("job", root)
				s.SetAttr("k", "v")
				tr.Active()
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(tr.Spans()); got != 16*50+1 {
		t.Errorf("spans = %d, want %d", got, 16*50+1)
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("sweep", nil)
	job := tr.Start("job", root)
	job.SetAttr("hash", "sc-1")
	job.End()
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Name != "job" || spans[0].Attrs["hash"] != "sc-1" {
		t.Fatalf("round trip lost data: %+v", spans)
	}
	if _, err := ReadSpansJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Error("malformed JSONL accepted")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("sweep", nil)
	j1 := tr.Start("job", root)
	p1 := tr.Start("simulate", j1)
	j2 := tr.Start("job", root)
	p1.End()
	j1.End()
	j2.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("converter output is not a JSON array: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Errorf("event phase %v, want X", e["ph"])
		}
	}
	// The phase span must share its job's track; the two jobs must differ.
	var jobTids []float64
	var phaseTid float64
	for _, e := range events {
		switch e["name"] {
		case "job":
			jobTids = append(jobTids, e["tid"].(float64))
		case "simulate":
			phaseTid = e["tid"].(float64)
		}
	}
	if len(jobTids) != 2 || jobTids[0] == jobTids[1] {
		t.Errorf("jobs share a track: %v", jobTids)
	}
	if phaseTid != float64(j1.ID) {
		t.Errorf("phase tid = %g, want job track %d", phaseTid, j1.ID)
	}
}

func TestValidateAddr(t *testing.T) {
	good := []string{":8080", ":0", "127.0.0.1:9999", "localhost:8080", "[::1]:8080"}
	for _, a := range good {
		if err := ValidateAddr(a); err != nil {
			t.Errorf("ValidateAddr(%q) = %v, want nil", a, err)
		}
	}
	bad := []string{"", "8080", ":notaport", ":-1", ":70000", "host name:80", "a/b:80", "::1:8080x"}
	for _, a := range bad {
		if err := ValidateAddr(a); err == nil {
			t.Errorf("ValidateAddr(%q) accepted", a)
		}
	}
}

func TestParseLogMode(t *testing.T) {
	for _, m := range []string{"text", "json", "off"} {
		if got, err := ParseLogMode(m); err != nil || got != m {
			t.Errorf("ParseLogMode(%q) = %q, %v", m, got, err)
		}
	}
	if got, err := ParseLogMode(""); err != nil || got != LogText {
		t.Errorf("ParseLogMode(\"\") = %q, %v, want text default", got, err)
	}
	if _, err := ParseLogMode("verbose"); err == nil {
		t.Error("ParseLogMode accepted junk")
	}
}

func TestNewLoggerModes(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(LogJSON, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", 1)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil || rec["msg"] != "hello" {
		t.Errorf("json log record bad: %q err=%v", buf.String(), err)
	}
	buf.Reset()
	lg, err = NewLogger(LogOff, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lg.Error("should not appear")
	if buf.Len() != 0 {
		t.Errorf("off logger wrote %q", buf.String())
	}
	if _, err := NewLogger("xml", &buf); err == nil {
		t.Error("NewLogger accepted junk mode")
	}
}

func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("harness.cache_hits").Add(7)
	srv := httptest.NewServer(NewDebugMux(reg))
	defer srv.Close()

	var snap Snapshot
	getJSON(t, srv.URL+"/debug/vars", &snap)
	if snap.Counters["harness.cache_hits"] != 7 {
		t.Errorf("/debug/vars = %+v", snap)
	}
	for path, want := range map[string]int{"/debug/pprof/": http.StatusOK, "/progress": http.StatusNotFound} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestDebugMuxNil pins that a mux over a nil registry serves an empty
// snapshot instead of panicking: a server whose Runner has no registry
// still mounts it.
func TestDebugMuxNil(t *testing.T) {
	srv := httptest.NewServer(NewDebugMux(nil))
	defer srv.Close()
	var snap Snapshot
	getJSON(t, srv.URL+"/debug/vars", &snap)
	if snap.Counters == nil {
		t.Error("nil registry snapshot has nil maps")
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: content-type %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestListenRejectsMalformed(t *testing.T) {
	for _, addr := range []string{"", "nope", ":badport"} {
		if _, err := Listen(addr); err == nil {
			t.Errorf("Listen(%q) accepted", addr)
		}
	}
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
}
