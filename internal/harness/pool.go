package harness

import (
	"runtime"
	"sync"
)

// parallelMap runs fn over jobs on a bounded worker pool and returns the
// results in job order. Each job builds and drives its own independent
// simulation Engine, so jobs share nothing; this is where the harness gets
// its parallelism (schemes × seeds × sweep points), keeping the per-run
// simulator single-threaded and deterministic.
func parallelMap[J, R any](jobs []J, workers int, fn func(J) R) []R {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]R, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	if workers <= 1 {
		for i, j := range jobs {
			out[i] = fn(j)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
