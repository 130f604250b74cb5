package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// SubmitRequest is POST /sweeps' JSON body: a base spec plus the grid swept
// over it, the same shape `fnccbench sweep` expands. A field the body does
// not know is refused, not ignored.
type SubmitRequest = harness.Sweep

// SubmitResponse acknowledges an admitted sweep.
type SubmitResponse struct {
	ID     string `json:"id"`
	Points int    `json:"points"`
	// Results is the streaming endpoint for this sweep, NDJSON, points in
	// completion order while the sweep runs.
	Results string `json:"results"`
}

// maxSubmitBytes bounds a submit body; a sweep request is a spec and a
// grid, not a payload.
const maxSubmitBytes = 1 << 20

// maxSubmitPoints bounds the points one submit may describe. The body bound
// alone does not bound the grid: a few thousand seeds times a few thousand
// loads fit in 40 KB and would expand to millions of validated specs before
// any point runs. The bench grids have 224 points.
const maxSubmitPoints = 1 << 16

// submitSpecs turns a submit body into the sweep's validated specs — read,
// decode, bound, expand — or an error and the HTTP status that answers it.
// It counts the points before expanding anything.
func submitSpecs(r io.Reader) ([]scenario.Spec, int, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxSubmitBytes+1))
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("read body: %w", err)
	}
	if len(body) > maxSubmitBytes {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("submit body exceeds %d bytes", maxSubmitBytes)
	}
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("parse sweep: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, http.StatusBadRequest, fmt.Errorf("parse sweep: data after the sweep object")
	}
	if req.Grid.Points() > maxSubmitPoints {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("sweep has more than %d points", maxSubmitPoints)
	}
	specs, err := req.Expand()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return specs, 0, nil
}

// Handler returns the service's HTTP surface:
//
//	POST /sweeps                submit (SubmitRequest -> SubmitResponse)
//	GET  /sweeps                list sweep statuses
//	GET  /sweeps/{id}           one sweep's status
//	GET  /sweeps/{id}/results   NDJSON result stream (?from=N resumes)
//	GET  /progress              per-sweep rows + open spans
//	GET  /debug/vars            metrics-registry snapshot
//	GET  /debug/pprof/*         pprof
//
// Every handler runs inside the request-metrics middleware: a server.*
// counter bump, a request span, and a latency histogram observation.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", s.handleSubmit)
	mux.HandleFunc("POST /sweeps/{$}", s.handleSubmit)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /progress", s.handleProgress)
	mux.Handle("GET /debug/", obs.NewDebugMux(s.reg))
	return s.instrument(mux)
}

// progressBody is /progress's JSON shape: one row per sweep plus the open
// spans, which say what each running job is doing now.
type progressBody struct {
	Sweeps []Status         `json:"sweeps"`
	Jobs   []obs.ActiveSpan `json:"jobs,omitempty"`
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(progressBody{Sweeps: s.statuses(), Jobs: s.tracer.Active()})
}

// instrument wraps the mux with the request middleware.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		s.reg.Counter(MetricRequests).Add(1)
		span := s.tracer.Start("http", nil)
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		// Deferred, so a handler that panics still closes its span.
		defer func() {
			span.SetAttr("status", strconv.Itoa(sw.code))
			span.End()
			if sw.code >= 400 {
				s.reg.Counter(MetricRequestErrors).Add(1)
			}
			s.reg.Histogram(MetricRequestMs).
				Observe(float64(time.Since(started).Nanoseconds()) / 1e6)
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter records the response code for the middleware, forwarding
// Flush so NDJSON streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	specs, code, err := submitSpecs(r.Body)
	if err != nil {
		httpError(w, code, err)
		return
	}
	sw, err := s.start(specs)
	switch {
	case err == errDraining:
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(SubmitResponse{
		ID:      sw.id,
		Points:  len(specs),
		Results: "/sweeps/" + sw.id + "/results",
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.statuses())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sw.status())
}

// handleResults streams a sweep's points as NDJSON in completion order,
// flushing after every batch so clients see points while the sweep is
// still running. ?from=N skips the first N points (resume after a dropped
// connection). The stream ends when every point has been delivered; a
// client connecting after the sweep finished gets the full replay.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q", v))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := from
	for {
		for _, p := range sw.snapshot(sent) {
			if err := enc.Encode(p); err != nil {
				return // client went away
			}
			sent++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if sent >= sw.total {
			return
		}
		select {
		case <-sw.await(sent):
		case <-r.Context().Done():
			return
		}
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
