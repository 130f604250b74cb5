package harness

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// durRunner is a Runner whose stand-in run returns at once, the spec's
// duration as its one metric, after calling hook (when set) with the spec:
// the pool tests exercise scheduling, not simulation.
func durRunner(hook func(scenario.Spec)) *Runner {
	r := &Runner{}
	r.run = func(sp scenario.Spec) (*scenario.Result, error) {
		if hook != nil {
			hook(sp)
		}
		return &scenario.Result{Spec: sp, Metrics: map[string]float64{"dur": float64(sp.DurationUs)}}, nil
	}
	return r
}

// mustNorms normalizes specs that are known to validate, as a batch takes
// them.
func mustNorms(specs []scenario.Spec) []scenario.Norm {
	norms := make([]scenario.Norm, len(specs))
	for i, sp := range specs {
		n, err := sp.Normalize()
		if err != nil {
			panic(err)
		}
		norms[i] = n
	}
	return norms
}

// durSpecs is n distinct cheap specs, point i running i+1 us.
func durSpecs(n int) []scenario.Spec {
	specs := make([]scenario.Spec, n)
	for i := range specs {
		specs[i] = microSpec("FNCC")
		specs[i].DurationUs = int64(i + 1)
	}
	return specs
}

// runBatch runs specs as one batch on a fresh pool and returns what onPoint
// received, by index, with how many times each index was settled.
func runBatch(r *Runner, workers int, specs []scenario.Spec) ([]*scenario.Result, []int) {
	pool := r.NewPool(workers)
	defer pool.Close(0)
	out := make([]*scenario.Result, len(specs))
	calls := make([]int, len(specs))
	b := pool.Start(mustNorms(specs), nil, nil, func(i int, res *scenario.Result, err error) {
		out[i] = res
		calls[i]++
	})
	<-b.Settled()
	return out, calls
}

// inFlight tracks how many runs (or how much width) are running at once and
// the most ever seen.
type inFlight struct {
	mu        sync.Mutex
	cur, peak int
}

func (f *inFlight) add(n int) {
	f.mu.Lock()
	f.cur += n
	f.peak = max(f.peak, f.cur)
	f.mu.Unlock()
}

// TestParallelMapOrdering: results land at their point's index regardless of
// worker interleaving.
func TestParallelMapOrdering(t *testing.T) {
	specs := durSpecs(100)
	for _, workers := range []int{0, 1, 2, 7, 100, 1000} {
		out, _ := runBatch(durRunner(nil), workers, specs)
		for i, res := range out {
			if res == nil || res.Metrics["dur"] != float64(i+1) {
				t.Fatalf("workers=%d: out[%d] = %+v, want dur %d", workers, i, res, i+1)
			}
		}
	}
}

// TestParallelMapZeroJobs: an empty batch settles at once, never calls
// onPoint, and leaves no worker goroutine behind once the pool closes.
func TestParallelMapZeroJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := durRunner(nil).NewPool(8)
	b := pool.Start(nil, nil, nil, func(int, *scenario.Result, error) { t.Error("onPoint called") })
	select {
	case <-b.Settled():
	default:
		t.Fatal("empty batch did not settle at Start")
	}
	if p := b.Progress(); p != (Progress{}) {
		t.Errorf("empty batch progress = %+v", p)
	}
	if err := pool.Close(time.Second); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestParallelMapWorkerClamp: never more concurrent runs than the requested
// worker count, nor than GOMAXPROCS; more workers than points still
// completes.
func TestParallelMapWorkerClamp(t *testing.T) {
	var f inFlight
	r := durRunner(func(scenario.Spec) {
		f.add(1)
		time.Sleep(100 * time.Microsecond)
		f.add(-1)
	})
	runBatch(r, 4, durSpecs(30))
	if want := min(4, runtime.GOMAXPROCS(0)); f.peak > want {
		t.Fatalf("observed %d concurrent runs, want <= %d", f.peak, want)
	}

	out, _ := runBatch(durRunner(nil), 64, durSpecs(2))
	if out[0].Metrics["dur"] != 1 || out[1].Metrics["dur"] != 2 {
		t.Fatalf("clamped run returned %v, %v", out[0].Metrics, out[1].Metrics)
	}
}

// TestParallelMapSerialFallback: one worker runs the points one at a time,
// in spec order.
func TestParallelMapSerialFallback(t *testing.T) {
	var order []int64
	r := durRunner(func(sp scenario.Spec) {
		order = append(order, sp.DurationUs) // safe: one worker
	})
	runBatch(r, 1, durSpecs(3))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("one worker ran out of order: %v", order)
	}
}

// TestParallelMapOrderAndCoverage: every point settles exactly once, two
// batches sharing a pool included.
func TestParallelMapOrderAndCoverage(t *testing.T) {
	r := durRunner(nil)
	_, calls := runBatch(r, 8, durSpecs(100))
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("point %d settled %d times", i, n)
		}
	}
	pool := r.NewPool(0)
	defer pool.Close(0)
	var mu sync.Mutex
	seen := map[[2]int]int{}
	var batches []*Batch
	for k := range 2 {
		batches = append(batches, pool.Start(mustNorms(durSpecs(50)), nil, nil, func(i int, _ *scenario.Result, err error) {
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			seen[[2]int{k, i}]++
			mu.Unlock()
		}))
	}
	for _, b := range batches {
		<-b.Settled()
	}
	if len(seen) != 100 {
		t.Fatalf("two batches of 50 settled %d distinct points", len(seen))
	}
	for pt, n := range seen {
		if n != 1 {
			t.Fatalf("point %v settled %d times", pt, n)
		}
	}
}

// TestProgressTrackerInvariants hammers batches from a wide pool — one run to
// the end, one aborted part way — and checks every emitted snapshot holds the
// structural invariants the /progress endpoint publishes: counts never exceed
// Total, nothing goes negative, and the throughput is a finite non-negative
// number. Run under -race in CI, this is also the data-race guard for the
// progress path.
func TestProgressTrackerInvariants(t *testing.T) {
	const total = 200
	var mu sync.Mutex
	var bad []string
	check := func(p Progress) {
		if p.Done+p.Errored+p.Skipped+p.InFlight > p.Total || p.Done < 0 || p.Errored < 0 ||
			p.Skipped < 0 || p.InFlight < 0 || p.Cached < 0 {
			mu.Lock()
			bad = append(bad, "count invariant broken")
			mu.Unlock()
		}
		if p.Cached > p.Done {
			mu.Lock()
			bad = append(bad, "cached exceeds done")
			mu.Unlock()
		}
		if p.EventsPerSec < 0 || math.IsNaN(p.EventsPerSec) || math.IsInf(p.EventsPerSec, 0) {
			mu.Lock()
			bad = append(bad, "events/sec not a finite non-negative")
			mu.Unlock()
		}
	}
	// The second batch's points past the half wait for the abort, so it
	// always lands with points left to skip.
	release := make(chan struct{})
	r := &Runner{}
	r.run = func(sp scenario.Spec) (*scenario.Result, error) {
		if sp.Scheme == "HPCC" && sp.DurationUs > total/2 {
			<-release
		}
		runtime.Gosched()
		return &scenario.Result{Cached: sp.DurationUs%2 == 0, Metrics: map[string]float64{"engine_events": 1000}}, nil
	}
	pool := r.NewPool(8)
	defer pool.Close(0)
	noop := func(int, *scenario.Result, error) {}
	full := pool.Start(mustNorms(durSpecs(total)), nil, check, noop)
	cut := durSpecs(total)
	for i := range cut {
		cut[i].Scheme = "HPCC" // distinct from full's hashes
	}
	quarter := make(chan struct{})
	aborted := pool.Start(mustNorms(cut), nil, func(p Progress) {
		check(p)
		if p.Done == total/4 {
			select {
			case <-quarter:
			default:
				close(quarter)
			}
		}
	}, noop)
	<-quarter
	aborted.Abort()
	close(release)
	<-full.Settled()
	<-aborted.Settled()
	mu.Lock()
	defer mu.Unlock()
	if len(bad) > 0 {
		t.Fatalf("%d invariant violations, first: %s", len(bad), bad[0])
	}
	if p := full.Progress(); p.Done != total || p.InFlight != 0 || p.Cached != total/2 || p.Skipped != 0 {
		t.Errorf("final progress = %+v, want %d done, %d cached", p, total, total/2)
	}
	if p := aborted.Progress(); p.Done+p.Skipped != total || p.InFlight != 0 || p.Skipped == 0 {
		t.Errorf("aborted batch progress = %+v, want done + skipped = %d, some skipped", p, total)
	}
}

// TestProgressTrackerInstantSweep pins the all-cached corner: a sweep whose
// jobs simulate nothing reports EventsPerSec exactly 0 — not NaN, not
// negative, not Inf — and an errored job lands in Errored, not Done.
func TestProgressTrackerInstantSweep(t *testing.T) {
	r := &Runner{}
	r.run = func(scenario.Spec) (*scenario.Result, error) {
		return &scenario.Result{Cached: true, Metrics: map[string]float64{}}, nil
	}
	pool := r.NewPool(2)
	defer pool.Close(0)
	var last Progress
	b := pool.Start(mustNorms(durSpecs(3)), nil, func(p Progress) { last = p }, func(int, *scenario.Result, error) {})
	<-b.Settled()
	if last.Done != 3 || last.Cached != 3 {
		t.Fatalf("final progress = %+v", last)
	}
	if last.EventsPerSec != 0 {
		t.Errorf("all-cached sweep events/sec = %g, want exactly 0", last.EventsPerSec)
	}
	r.run = func(scenario.Spec) (*scenario.Result, error) { return nil, errors.New("no result") }
	b2 := pool.Start(mustNorms(durSpecs(1)), nil, nil, func(int, *scenario.Result, error) {})
	<-b2.Settled()
	if p := b2.Progress(); p.Done != 0 || p.Errored != 1 || p.InFlight != 0 {
		t.Errorf("errored job progress = %+v, want Errored=1 Done=0", p)
	}
}

// TestPoolWorkers pins the width budget: whatever mix of widths several
// batches bring, the widths of the points running at once never sum past
// GOMAXPROCS, however many workers the pool has.
func TestPoolWorkers(t *testing.T) {
	const budget = 4
	old := runtime.GOMAXPROCS(budget)
	defer runtime.GOMAXPROCS(old)
	var f inFlight
	r := durRunner(func(sp scenario.Spec) {
		w := min(max(sp.Workers, 1), budget)
		f.add(w)
		time.Sleep(200 * time.Microsecond)
		f.add(-w)
	})
	pool := r.NewPool(budget)
	defer pool.Close(0)
	var batches []*Batch
	for k, widths := range [][]int{{1, 2, 3, 1, 4, 1}, {3, 3, 1, 2}, {1, 1, 1, 1, 2}} {
		specs := durSpecs(len(widths))
		for i, w := range widths {
			specs[i].Workers = w
			specs[i].DurationUs += int64(10 * k)
		}
		for range 5 {
			batches = append(batches, pool.Start(mustNorms(specs), nil, nil, func(int, *scenario.Result, error) {}))
		}
	}
	for _, b := range batches {
		<-b.Settled()
		if p := b.Progress(); p.Done != p.Total {
			t.Errorf("batch progress %+v", p)
		}
	}
	if f.peak > budget {
		t.Fatalf("widths in flight peaked at %d, budget %d", f.peak, budget)
	}
	if f.peak < 2 {
		t.Errorf("widths in flight peaked at %d: the pool never ran points side by side", f.peak)
	}
}

// TestPoolWideJobRunsAlone: a point wider than the budget takes all of it —
// it runs, and nothing runs beside it.
func TestPoolWideJobRunsAlone(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	var running atomic.Int32
	var wideSawOthers atomic.Bool
	r := durRunner(func(sp scenario.Spec) {
		running.Add(1)
		if sp.Workers > 2 && running.Load() != 1 {
			wideSawOthers.Store(true)
		}
		time.Sleep(time.Millisecond)
		if sp.Workers > 2 && running.Load() != 1 {
			wideSawOthers.Store(true)
		}
		running.Add(-1)
	})
	specs := durSpecs(7)
	specs[3].Workers = 5
	out, calls := runBatch(r, 0, specs)
	for i := range specs {
		if calls[i] != 1 || out[i] == nil {
			t.Fatalf("point %d: %d calls, result %v", i, calls[i], out[i])
		}
	}
	if wideSawOthers.Load() {
		t.Error("another point ran beside the over-wide one")
	}
}

// waitGoroutines waits for the goroutine count to fall back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), before)
		}
	}
}
