package harness_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// widthMeter is a stand-in run that records the sum of the widths of the
// runs in flight — a run's width being its spec's window-worker count — and
// the most that sum ever reached.
type widthMeter struct {
	mu        sync.Mutex
	cur, peak int
}

func (m *widthMeter) run(sp scenario.Spec) (*scenario.Result, error) {
	w := max(sp.Workers, 1)
	m.mu.Lock()
	m.cur += w
	m.peak = max(m.peak, m.cur)
	m.mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	m.mu.Lock()
	m.cur -= w
	m.mu.Unlock()
	return &scenario.Result{Spec: sp, Metrics: map[string]float64{"engine_events": 1}}, nil
}

// micros is one cheap spec per width, each point its own hash.
func micros(widths ...int) []scenario.Spec {
	specs := make([]scenario.Spec, len(widths))
	for i, w := range widths {
		specs[i] = scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: int64(50 + i), Workers: w}
	}
	return specs
}

// TestPoolWidthBudget: the window workers of the points running at once
// never outnumber the cores, on the sweep service as on RunAll. A served
// sweep used to size its pool as if every point were serial, so four
// two-worker points on two cores ran four window workers per core pair.
func TestPoolWidthBudget(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	t.Run("served", func(t *testing.T) {
		var m widthMeter
		runner := &harness.Runner{}
		runner.SetRun(m.run)
		srv, err := sweepd.New(sweepd.Config{Runner: runner, Workers: 0})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Drain(10 * time.Second)
		// Four two-worker points, one per scheme.
		body, _ := json.Marshal(sweepd.SubmitRequest{
			Base: scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC", DurationUs: 50, Workers: 2},
			Grid: harness.Grid{Schemes: []string{"FNCC", "HPCC", "DCQCN", "RoCC"}},
		})
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr sweepd.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
		}
		stream, err := http.Get(ts.URL + sr.Results)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for sc := bufio.NewScanner(stream.Body); sc.Scan(); lines++ {
		}
		stream.Body.Close()
		if lines != 4 {
			t.Fatalf("streamed %d points, want 4", lines)
		}
		if m.peak > 2 {
			t.Errorf("served sweep ran %d window workers at once on 2 cores", m.peak)
		}
	})

	t.Run("RunAll", func(t *testing.T) {
		var m widthMeter
		r := &harness.Runner{}
		r.SetRun(m.run)
		if _, err := r.RunAll(micros(1, 1, 2, 1)); err != nil {
			t.Fatal(err)
		}
		if m.peak > 2 {
			t.Errorf("RunAll ran %d window workers at once on 2 cores", m.peak)
		}
	})
}

// TestPoolGoroutinesReturnToBaseline: every pool's workers exit with it —
// after RunAll, after an interrupted RunAllCtx, and after a server drain.
func TestPoolGoroutinesReturnToBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	settle := func(after string) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, %d before", after, runtime.NumGoroutine(), baseline)
			}
		}
	}
	var m widthMeter

	r := &harness.Runner{Workers: 2}
	r.SetRun(m.run)
	if _, err := r.RunAll(micros(1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	settle("RunAll")

	ctx, cancel := context.WithCancel(context.Background())
	r = &harness.Runner{Workers: 1, OnProgress: func(p harness.Progress) {
		if p.Done == 1 {
			cancel()
		}
	}}
	r.SetRun(m.run)
	if _, err := r.RunAllCtx(ctx, micros(1, 1, 1, 1)); !errors.Is(err, harness.ErrInterrupted) {
		t.Fatalf("RunAllCtx: err = %v, want ErrInterrupted", err)
	}
	settle("an interrupted RunAllCtx")

	r = &harness.Runner{}
	r.SetRun(m.run)
	srv, err := sweepd.New(sweepd.Config{Runner: r, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(micros(1, 1, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	settle("Server.Drain")
}
