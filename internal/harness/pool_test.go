package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelMapOrdering: results land at their job's index regardless of
// worker interleaving.
func TestParallelMapOrdering(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{0, 1, 2, 7, 100, 1000} {
		out := parallelMap(jobs, workers, func(j int) int { return j * j })
		if len(out) != len(jobs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(jobs))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestParallelMapZeroJobs: no jobs means an empty, non-nil result and no
// worker goroutines left behind.
func TestParallelMapZeroJobs(t *testing.T) {
	out := parallelMap(nil, 8, func(j int) int { t.Fatal("fn called"); return 0 })
	if out == nil || len(out) != 0 {
		t.Fatalf("got %v, want empty slice", out)
	}
}

// TestParallelMapWorkerClamp: never more concurrent fn calls than jobs, nor
// than the requested worker count.
func TestParallelMapWorkerClamp(t *testing.T) {
	var cur, peak atomic.Int64
	var mu sync.Mutex
	jobs := make([]int, 30)
	parallelMap(jobs, 4, func(int) int {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		runtime.Gosched()
		cur.Add(-1)
		return 0
	})
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent workers, want <= 4", p)
	}

	// More workers than jobs: must not deadlock and must still complete.
	out := parallelMap([]int{1, 2}, 64, func(j int) int { return j })
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("clamped run returned %v", out)
	}
}

// TestParallelMapSerialFallback: workers <= 1 runs inline, in order.
func TestParallelMapSerialFallback(t *testing.T) {
	var order []int
	jobs := []int{10, 20, 30}
	parallelMap(jobs, 1, func(j int) int {
		order = append(order, j) // safe: serial path runs on one goroutine
		return j
	})
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Fatalf("serial path ran out of order: %v", order)
	}
}

func TestParallelMapOrderAndCoverage(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	got := parallelMap(jobs, 8, func(x int) int { return x * x })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Degenerate pools.
	if r := parallelMap([]int{}, 4, func(x int) int { return x }); len(r) != 0 {
		t.Fatal("empty jobs")
	}
	if r := parallelMap([]int{5}, 0, func(x int) int { return x + 1 }); r[0] != 6 {
		t.Fatal("auto workers")
	}
}
