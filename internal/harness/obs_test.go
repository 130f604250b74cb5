package harness

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

func microSpec(scheme string) scenario.Spec {
	return scenario.Spec{Kind: scenario.KindMicro, Scheme: scheme, DurationUs: 50}
}

// TestRunnerObsIntegration runs a small sweep with the full obs layer on
// and checks the registry totals and span tree line up with what actually
// happened: every job gets a span with cache-lookup and simulate phases,
// re-running from cache flips the counters to hits, and the engine counters
// read off each simulated result add up to process totals.
func TestRunnerObsIntegration(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	var last Progress
	r := &Runner{CacheDir: t.TempDir(), Workers: 2, Obs: reg, Tracer: tracer,
		OnProgress: func(p Progress) { last = p }}
	specs := []scenario.Spec{microSpec("FNCC"), microSpec("HPCC")}
	results, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	s := reg.Snapshot()
	if s.Counters[MetricCacheMisses] != 2 || s.Counters[MetricCacheHits] != 0 {
		t.Errorf("first sweep counters: %+v", s.Counters)
	}
	if s.Counters[MetricJobsDone] != 2 {
		t.Errorf("jobs done = %d", s.Counters[MetricJobsDone])
	}
	wantEvents := int64(results[0].Metrics["engine_events"] + results[1].Metrics["engine_events"])
	if got := s.Counters[MetricEngineEvents]; got != wantEvents {
		t.Errorf("engine events total = %d, want %d (a simulated run was not observed)", got, wantEvents)
	}
	if last.Done != 2 || last.Total != 2 {
		t.Errorf("last progress = %+v, want Done=2 Total=2", last)
	}
	if s.Histograms[MetricJobWallMs].Count != 2 {
		t.Errorf("job wall histogram count = %d", s.Histograms[MetricJobWallMs].Count)
	}

	// Span tree: one sweep root, two jobs under it, each with at least
	// cache-lookup + simulate + cache-store phases.
	spans := tracer.Spans()
	var rootID uint64
	jobs, phases := 0, map[string]int{}
	for _, sp := range spans {
		if sp.Name == "sweep" {
			rootID = sp.ID
		}
	}
	if rootID == 0 {
		t.Fatal("no sweep root span")
	}
	jobIDs := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Name == "job" && sp.Parent == rootID {
			jobs++
			jobIDs[sp.ID] = true
			if sp.Attrs["hash"] == "" || sp.Attrs["outcome"] != "simulated" {
				t.Errorf("job span attrs: %+v", sp.Attrs)
			}
		}
	}
	for _, sp := range spans {
		if jobIDs[sp.Parent] {
			phases[sp.Name]++
		}
	}
	if jobs != 2 || phases["cache-lookup"] != 2 || phases["simulate"] != 2 || phases["cache-store"] != 2 {
		t.Errorf("span coverage: jobs=%d phases=%v", jobs, phases)
	}

	// Second sweep over the same specs: all cache hits, engine totals untouched.
	r2 := &Runner{CacheDir: r.CacheDir, Obs: reg, Tracer: tracer}
	if _, err := r2.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	s = reg.Snapshot()
	if s.Counters[MetricCacheHits] != 2 {
		t.Errorf("cache hits after re-run = %d", s.Counters[MetricCacheHits])
	}
	if got := s.Counters[MetricEngineEvents]; got != wantEvents {
		t.Errorf("cached re-run changed engine totals: %d != %d", got, wantEvents)
	}
	for _, sp := range tracer.Spans() {
		if sp.Name == "job" && sp.Attrs["outcome"] == "cached" {
			return
		}
	}
	t.Error("no job span marked cached after the re-run")
}

// TestRunnerObsOffIsInert pins the other side of the contract: a Runner
// with no Obs/Tracer behaves exactly as before the layer existed — no
// spans, results identical to an instrumented run.
func TestRunnerObsOffIsInert(t *testing.T) {
	plain := &Runner{}
	instr := &Runner{Obs: obs.NewRegistry(), Tracer: obs.NewTracer()}
	a, err := plain.Run(microSpec("FNCC"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := instr.Run(microSpec("FNCC"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Errorf("hash differs with obs on: %s != %s", a.Hash, b.Hash)
	}
	for _, k := range []string{"queue_peak_bytes", "engine_events", "mean_util"} {
		if math.Float64bits(a.Metrics[k]) != math.Float64bits(b.Metrics[k]) {
			t.Errorf("metric %s differs with obs on: %g != %g", k, a.Metrics[k], b.Metrics[k])
		}
	}
}

// TestRunAllCtxInterrupt cancels mid-sweep and checks the contract: the
// completed prefix comes back with ErrInterrupted, everything returned is
// in the cache, and a resumed run serves those points as hits.
func TestRunAllCtxInterrupt(t *testing.T) {
	cacheDir := t.TempDir()
	specs := make([]scenario.Spec, 8)
	for i := range specs {
		sp := microSpec("FNCC")
		sp.Seed = 0
		sp.DurationUs = int64(50 + i) // distinct hashes
		specs[i] = sp
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	r := &Runner{CacheDir: cacheDir, Workers: 1, OnProgress: func(p Progress) {
		done = p.Done
		if p.Done == 2 {
			cancel() // cancel after the second job completes
		}
	}}
	results, err := r.RunAllCtx(ctx, specs)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(results) == 0 || len(results) >= len(specs) {
		t.Fatalf("partial results = %d of %d (done=%d)", len(results), len(specs), done)
	}
	for _, res := range results {
		if res == nil {
			t.Fatal("nil result in completed prefix")
		}
	}
	// Resume: the finished points must be cache hits, the rest simulate.
	r2 := &Runner{CacheDir: cacheDir}
	full, err := r2.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(specs) {
		t.Fatalf("resumed sweep = %d results", len(full))
	}
	hits, _ := r2.Stats()
	if int(hits) < len(results) {
		t.Errorf("resume served %d hits, want >= %d (interrupted jobs lost their cache writes)", hits, len(results))
	}
}

// TestRunAllCtxUncancelled pins that the context path is invisible when
// never cancelled.
func TestRunAllCtxUncancelled(t *testing.T) {
	r := &Runner{}
	results, err := r.RunAllCtx(context.Background(), []scenario.Spec{microSpec("FNCC")})
	if err != nil || len(results) != 1 {
		t.Fatalf("RunAllCtx = %d results, %v", len(results), err)
	}
}
