package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Pool runs the points of any number of sweeps on one bounded set of worker
// goroutines. Each point drives its own deterministic simulation, so points
// share nothing but the Runner's cache and singleflight table; this is where
// the harness gets its parallelism (schemes × seeds × sweep points).
//
// Two bounds apply. At most workers points run at once, and before a point
// runs it takes its width — min(max(spec.Workers, 1), GOMAXPROCS), one token
// per window worker its simulation may run — from the pool's GOMAXPROCS
// budget, so the widths of running points never sum past the cores whatever
// mix of sweeps is live. Batches are fed one point from each in turn: a later
// sweep's points interleave with an earlier sweep's remainder instead of
// queueing behind it.
type Pool struct {
	r *Runner
	// tokens has one slot per GOMAXPROCS; a running point fills as many as
	// its width. take serialises the fills, so a wide point waiting for its
	// last tokens keeps its place instead of being starved by narrow ones;
	// it is held while a fill blocks, which is safe because release, the
	// only thing that unblocks a fill, never takes it.
	tokens chan struct{}
	take   sync.Mutex

	mu     sync.Mutex
	wake   *sync.Cond // a batch arrived or the pool closed
	live   []*Batch   // batches with unfed points, in feeding order
	turn   int        // index into live of the batch fed next
	closed bool

	workers atomic.Int32  // worker goroutines still running
	done    chan struct{} // closed by the last worker to exit
}

// NewPool starts a pool of workers goroutines running points through r
// (<= 0, or more than GOMAXPROCS, means GOMAXPROCS). Close it when done.
func (r *Runner) NewPool(workers int) *Pool {
	budget := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > budget {
		workers = budget
	}
	p := &Pool{r: r, tokens: make(chan struct{}, budget), done: make(chan struct{})}
	p.wake = sync.NewCond(&p.mu)
	p.workers.Store(int32(workers))
	for range workers {
		go p.work()
	}
	return p
}

// work is the one worker loop: take the next fed point and run it, until
// the pool is closed and nothing is left to feed. The worker's arena is the
// run storage of every point it simulates (scenario.Arena).
func (p *Pool) work() {
	a := new(scenario.Arena)
	for b, i, ok := p.next(); ok; b, i, ok = p.next() {
		b.run(i, a)
	}
	if p.workers.Add(-1) == 0 {
		close(p.done)
	}
}

// next feeds the next point, blocking while no batch has one; false once the
// pool is closed and every batch is fed.
func (p *Pool) next() (*Batch, int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.live) == 0 {
		if p.closed {
			return nil, 0, false
		}
		p.wake.Wait()
	}
	p.turn %= len(p.live)
	b := p.live[p.turn]
	i := b.fed
	if b.fed++; b.fed == len(b.norms) {
		p.live = slices.Delete(p.live, p.turn, p.turn+1)
	} else {
		p.turn++
	}
	return b, i, true
}

// acquire takes a point's width from the budget, the whole budget at most:
// an over-wide point runs alone rather than never.
func (p *Pool) acquire(workers int) int {
	w := min(max(workers, 1), cap(p.tokens))
	p.take.Lock()
	for range w {
		p.tokens <- struct{}{}
	}
	p.take.Unlock()
	return w
}

func (p *Pool) release(w int) {
	for range w {
		<-p.tokens
	}
}

// Close lets the workers exit once every batch is fed — abort the batches
// that should stop first — and waits for the last one to, or for timeout
// when it is positive. Every call waits, so a second Close returns no sooner
// than the first. Start no batch on a closed pool.
func (p *Pool) Close(timeout time.Duration) error {
	p.mu.Lock()
	p.closed = true
	p.wake.Broadcast()
	p.mu.Unlock()
	if timeout <= 0 {
		<-p.done
		return nil
	}
	select {
	case <-p.done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("harness: pool close timed out after %v", timeout)
	}
}

// Batch is one sweep's points on a Pool. Every point settles exactly once:
// it runs to a result or an error, or Abort skips it.
type Batch struct {
	pool    *Pool
	norms   []scenario.Norm
	root    *obs.Span
	notify  func(Progress)
	onPoint func(int, *scenario.Result, error)
	started time.Time
	fed     int // points handed to workers so far (pool.mu)

	mu      sync.Mutex
	p       Progress
	settled chan struct{}
}

// Start queues norms as one batch, their job spans parented under root.
// onPoint receives every point's outcome by index — its result, its
// error, or ErrInterrupted for a point Abort skipped — and notify, when
// non-nil, the batch's Progress after every point starts or settles. Both
// run under the batch's lock, one call at a time, so they must be quick and
// must not call the batch's methods.
func (p *Pool) Start(norms []scenario.Norm, root *obs.Span, notify func(Progress),
	onPoint func(i int, res *scenario.Result, err error)) *Batch {
	b := &Batch{pool: p, norms: norms, root: root, notify: notify, onPoint: onPoint,
		started: time.Now(), p: Progress{Total: len(norms)}, settled: make(chan struct{})}
	if len(norms) == 0 {
		close(b.settled)
		return b
	}
	p.mu.Lock()
	p.live = append(p.live, b)
	p.wake.Broadcast()
	p.mu.Unlock()
	return b
}

// run runs point i on a once its width is taken from the budget. A point a
// worker has taken runs even if its batch is aborted meanwhile.
func (b *Batch) run(i int, a *scenario.Arena) {
	n := b.norms[i]
	w := b.pool.acquire(n.Spec().Workers)
	b.mu.Lock()
	b.p.InFlight++
	b.emitLocked()
	b.mu.Unlock()
	res, err := b.pool.r.runOne(n, b.root, a)
	b.pool.release(w)
	b.mu.Lock()
	b.p.InFlight--
	b.settleLocked(i, res, err)
	b.mu.Unlock()
}

// Abort stops feeding the batch: every point no worker has taken settles as
// skipped, and running points finish and write their cache entries. Safe to
// call more than once, and after the batch settled.
func (b *Batch) Abort() {
	p := b.pool
	p.mu.Lock()
	from := b.fed
	b.fed = len(b.norms)
	p.live = slices.DeleteFunc(p.live, func(x *Batch) bool { return x == b })
	p.mu.Unlock()
	b.mu.Lock()
	for i := from; i < len(b.norms); i++ {
		b.settleLocked(i, nil, ErrInterrupted)
	}
	b.mu.Unlock()
}

// Settled is closed once every point has settled and the last onPoint and
// notify calls have returned.
func (b *Batch) Settled() <-chan struct{} { return b.settled }

// Progress snapshots the batch's counts.
func (b *Batch) Progress() Progress {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.progressLocked()
}

// settleLocked counts point i's outcome, hands it to onPoint and the
// progress to notify, and closes settled after the last point (mu held).
func (b *Batch) settleLocked(i int, res *scenario.Result, err error) {
	switch {
	case err == ErrInterrupted:
		b.p.Skipped++
	case err != nil:
		b.p.Errored++
	default:
		b.p.Done++
		if res.Cached {
			b.p.Cached++
		} else {
			b.p.Events += res.Metrics["engine_events"]
		}
	}
	b.onPoint(i, res, err)
	b.emitLocked()
	if b.p.Done+b.p.Errored+b.p.Skipped == b.p.Total {
		close(b.settled)
	}
}

func (b *Batch) emitLocked() {
	if b.notify != nil {
		b.notify(b.progressLocked())
	}
}

// progressLocked is the counts plus the throughput since Start (mu held).
func (b *Batch) progressLocked() Progress {
	p := b.p
	if dt := time.Since(b.started).Seconds(); dt > 0 {
		p.EventsPerSec = p.Events / dt
	}
	return p
}
