package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// sweepWorkers is the closed-loop client count of every sweep pass: a
// 2-worker pool, each worker taking its next point when its last finishes.
const sweepWorkers = 2

// warmReplays is how many all-cached passes one sweep-warm repeat makes.
const warmReplays = 20

func gridName(i int) string { return fmt.Sprintf("p%04d", i) }

// resultPoints turns a pass's results (spec order) into points.
func resultPoints(results []*scenario.Result) []pointResult {
	points := make([]pointResult, len(results))
	for i, r := range results {
		points[i] = pointResult{name: gridName(i), metrics: r.Metrics}
	}
	return points
}

// runnerPass runs every spec through a fresh Runner on dir and checks the
// cache accounting: wantMisses points must simulate, the rest must hit.
func runnerPass(dir string, specs []scenario.Spec, wantMisses int, reg *obs.Registry, otr *obs.Tracer, tr *tracer) ([]pointResult, error) {
	r := &harness.Runner{CacheDir: dir, Workers: sweepWorkers, Obs: reg, Tracer: otr}
	results, err := r.RunAll(specs)
	if err != nil {
		return nil, err
	}
	points := resultPoints(results)
	hits, misses := r.Stats()
	tr.add("harness.cache_hits", float64(hits))
	tr.add("harness.cache_misses", float64(misses))
	tr.add("harness.coalesced", float64(r.Coalesced()))
	if int(misses) != wantMisses || int(hits+misses) != len(specs) {
		return points, fmt.Errorf("cache accounting: %d hits, %d misses over %d points, want %d misses",
			hits, misses, len(specs), wantMisses)
	}
	return points, nil
}

// sweepSetup binds one of the three sweep instances to the seed's grid.
func sweepSetup(mk func(*env, harness.Sweep) (*instance, error)) func(*env, int64) (*instance, error) {
	return func(e *env, seed int64) (*instance, error) { return mk(e, sweepGrid(seed)) }
}

// comparePoints reports the first few points whose digests differ.
func comparePoints(what string, a, b []pointResult) []string {
	if len(a) != len(b) {
		return []string{fmt.Sprintf("%s: %d points vs %d", what, len(a), len(b))}
	}
	var out []string
	for i := range a {
		if digest(a[i].metrics) != digest(b[i].metrics) && len(out) < 3 {
			out = append(out, fmt.Sprintf("%s: point %s differs", what, a[i].name))
		}
	}
	return out
}

func sweepCold(e *env, sw harness.Sweep) (*instance, error) {
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	var dir string
	return &instance{
		prepare: func() (err error) { dir, err = e.freshDir(); return err },
		body: func(tr *tracer) ([]pointResult, error) {
			id := tr.begin("harness.cold_pass", -1)
			defer tr.end(id)
			return runnerPass(dir, specs, len(specs), nil, nil, tr)
		},
		release: func() { os.RemoveAll(dir) },
		// Cold vs warm: what the cache gives back must be what was stored.
		verify: func(first []pointResult) []string {
			d, err := e.freshDir()
			if err != nil {
				return []string{err.Error()}
			}
			defer os.RemoveAll(d)
			if _, err := runnerPass(d, specs, len(specs), nil, nil, nil); err != nil {
				return []string{"verify cold pass: " + err.Error()}
			}
			warm, err := runnerPass(d, specs, 0, nil, nil, nil)
			if err != nil {
				return []string{"verify warm pass: " + err.Error()}
			}
			return comparePoints("cold vs warm", first, warm)
		},
	}, nil
}

func sweepWarm(e *env, sw harness.Sweep) (*instance, error) {
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	dir, err := e.freshDir()
	if err != nil {
		return nil, err
	}
	// Filling the cache is this workload's set-up.
	cold, err := runnerPass(dir, specs, len(specs), nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return &instance{
		body: func(tr *tracer) ([]pointResult, error) {
			id := tr.begin("harness.warm_pass", -1)
			defer tr.end(id)
			var all []pointResult
			for i := 0; i < warmReplays; i++ {
				points, err := runnerPass(dir, specs, 0, nil, nil, tr)
				if err != nil {
					return nil, err
				}
				all = append(all, points...)
			}
			return all, nil
		},
		verify: func(first []pointResult) []string {
			return comparePoints("cold vs warm", cold, first[:len(cold)])
		},
		cleanup: func() { os.RemoveAll(dir) },
	}, nil
}

// served is one sweepd instance on an in-process loopback HTTP server.
type served struct {
	dir string
	srv *sweepd.Server
	ts  *httptest.Server
}

func startServed(e *env) (*served, error) {
	dir, err := e.freshDir()
	if err != nil {
		return nil, err
	}
	srv, err := sweepd.New(sweepd.Config{
		Runner: &harness.Runner{CacheDir: dir, Workers: sweepWorkers}, Workers: sweepWorkers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &served{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (s *served) stop() {
	s.ts.Close()
	s.srv.Drain(time.Minute)
	os.RemoveAll(s.dir)
}

// pass submits the grid and reads its NDJSON stream to the end: one
// client, one submit, one stream.
func (s *served) pass(sw harness.Sweep, want int, tr *tracer) ([]pointResult, error) {
	root := tr.begin("sweepd.served_pass", -1)
	defer tr.end(root)
	body, err := json.Marshal(sweepd.SubmitRequest{Base: sw.Base, Grid: sw.Grid})
	if err != nil {
		return nil, err
	}
	client := s.ts.Client()

	id := tr.begin("sweepd.submit", root)
	resp, err := client.Post(s.ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var sr sweepd.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || sr.Points != want {
		return nil, fmt.Errorf("submit: status %d, %d points, want %d", resp.StatusCode, sr.Points, want)
	}

	first := tr.begin("sweepd.first_point", root)
	stream, err := client.Get(s.ts.URL + sr.Results)
	if err != nil {
		return nil, err
	}
	defer stream.Body.Close()
	rest := -1
	points := make([]pointResult, want)
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lines := 0
	for sc.Scan() {
		if lines == 0 {
			tr.end(first)
			rest = tr.begin("sweepd.stream", root)
		}
		lines++
		var p sweepd.Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return nil, fmt.Errorf("stream line %d: %w", lines, err)
		}
		if p.Index < 0 || p.Index >= want {
			return nil, fmt.Errorf("stream line %d: index %d out of range", lines, p.Index)
		}
		pr := pointResult{name: gridName(p.Index)}
		switch {
		case p.Error != "":
			pr.fail = "served point error: " + p.Error
		case p.Skipped || p.Row == nil:
			pr.fail = "served point skipped"
		default:
			pr.metrics = p.Row.Metrics
		}
		points[p.Index] = pr
	}
	tr.end(rest)
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if lines != want {
		return points, fmt.Errorf("stream carried %d points, want %d", lines, want)
	}
	return points, nil
}

func sweepServed(e *env, sw harness.Sweep) (*instance, error) {
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	var s *served
	return &instance{
		// A served pass is cold, so every repeat gets a new cache
		// directory and with it a new Runner and server.
		prepare: func() (err error) { s, err = startServed(e); return err },
		body:    func(tr *tracer) ([]pointResult, error) { return s.pass(sw, len(specs), tr) },
		release: func() { s.stop() },
		// Cold vs served: the HTTP envelope must not change a row.
		verify: func(first []pointResult) []string {
			direct, err := runnerPass("", specs, len(specs), nil, nil, nil)
			if err != nil {
				return []string{"verify direct pass: " + err.Error()}
			}
			return comparePoints("cold vs served", direct, first)
		},
	}, nil
}
