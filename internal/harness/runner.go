package harness

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// ErrInterrupted is a point that never ran because its batch was aborted,
// and what RunAllCtx returns when its context was cancelled mid-sweep: the
// returned results cover every job that finished (all of them safely in the
// cache), and the not-yet-started remainder was skipped.
var ErrInterrupted = errors.New("harness: sweep interrupted")

// errAbandoned is what the waiters of a singleflight leader get when the
// leader unwound without settling its call.
var errAbandoned = errors.New("harness: job abandoned by its leader")

// tmpMaxAge guards the startup reaper: an orphaned file in <cache>/tmp/ is
// only deleted once it is old enough that no live writer can still own it (a
// write is create → Write → Rename, microseconds to milliseconds of life for
// a legitimate temp file). A variable so the reaper test can shrink it.
var tmpMaxAge = time.Hour

// entryBufs holds the read buffers of Runner.load. decodeEntry copies all it
// keeps, so a buffer goes back the moment its entry is decoded, and a warm
// sweep reads every hit into a buffer an earlier hit grew.
var entryBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, entryBufSize)
	return &b
}}

// entryBufSize is a new read buffer's capacity: a fluid or packet point's
// entry is a few hundred bytes.
const entryBufSize = 4096

// Runner executes scenario specs on a Pool with an optional
// content-addressed disk cache. A Runner is safe for concurrent
// use; Hits/Misses/Coalesced accumulate across RunAll calls.
//
// The Runner is an exactly-once execution core over the spec content hash,
// built from two primitives:
//
//   - within a process, concurrent runs of one hash coalesce on an in-memory
//     singleflight table — one leader simulates, the rest wait for it;
//   - across processes sharing a CacheDir, the leader holds an exclusive
//     flock(2) on <hash>.lock while it simulates and stores, and re-checks
//     the cache once it has the lock — a second process blocks, then adopts
//     the first one's entry. The kernel releases the lock when its holder
//     exits or is killed, so a crashed peer never wedges a hash.
//
// Without flock (non-unix builds) only the cross-process half is off: two
// processes may simulate one hash twice, but the atomic temp-file + rename
// store still means the cache is never torn.
//
// A spec with a telemetry block hashes as the spec without it, and its job
// takes neither primitive: it always simulates, stores nothing, and audits
// the run against the hash's entry when there is one (replay).
type Runner struct {
	// CacheDir stores one result entry, <hash>.res, per spec hash (see
	// entry.go), beside its <hash>.lock and a tmp/ for stores in flight;
	// empty disables caching.
	CacheDir string
	// Workers bounds RunAll's pool; <= 0 means GOMAXPROCS.
	Workers int
	// OnProgress, when set, is invoked (serialized) after every job starts
	// or finishes during RunAll, feeding live sweep progress displays. The
	// callback must be fast; it runs on the worker goroutines under a lock.
	OnProgress func(Progress)
	// Obs, when set, receives operational metrics: cache hits/misses/
	// coalesced counts, job wall-time histograms, and the engine counters
	// read off each simulated result (engine events, fluid pass split).
	// Nil keeps the whole layer off at the cost of pointer tests —
	// the obs_overhead bench ratio pins that cost at ≤ 1%.
	Obs *obs.Registry
	// Tracer, when set, records spans: RunAll opens a "sweep" root, each
	// job a child with cache-lookup / simulate / cache-store phases. Nil
	// disables tracing.
	Tracer *obs.Tracer

	// run stands in for scenario.Run in a test that needs a run no spec
	// describes; nil outside tests.
	run func(scenario.Spec) (*scenario.Result, error)

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64

	initOnce sync.Once
	initErr  error

	flightMu sync.Mutex
	flight   map[string]*flightCall
}

// flightCall is one in-flight simulation of a spec hash. The leader closes
// done after res/err are set; waiters block on done and then read them.
type flightCall struct {
	done chan struct{}
	res  *scenario.Result
	err  error
}

// Progress is a point-in-time snapshot of one Batch — a RunAll sweep or a
// served one.
type Progress struct {
	// Total is the sweep's job count; Done counts successfully finished
	// jobs, of which Cached were served from the disk cache (or coalesced
	// onto another job's simulation). Errored counts jobs that failed and
	// Skipped the ones an abort left unstarted; Done + Errored + Skipped +
	// InFlight never exceeds Total. InFlight jobs are simulating right now.
	Total, Done, Cached, Errored, Skipped, InFlight int
	// Events totals the engine events of the simulated (non-cached) jobs
	// finished so far; EventsPerSec divides by the wall time since the
	// batch started, the sweep's aggregate simulation throughput.
	Events       float64
	EventsPerSec float64
}

// Stats reports how many jobs were served from cache vs simulated.
func (r *Runner) Stats() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}

// Coalesced reports how many jobs rode an identical in-flight simulation
// (same spec hash, in this process or another sharing the cache dir)
// instead of simulating or reading a settled cache entry.
func (r *Runner) Coalesced() int64 { return r.coalesced.Load() }

// initCache, once per Runner, creates the cache dir and its tmp/ and reaps
// the temp files a crashed earlier process may have orphaned between
// creating and renaming them. tmp/ is best-effort: a cache dir that refuses
// it (a read-only shared cache) still serves hits, and only its stores fail.
// In the common case, a cache whose tmp/ exists, this is one stat and one
// listing of tmp/, whatever the number of entries.
func (r *Runner) initCache() error {
	if r.CacheDir == "" {
		return nil
	}
	r.initOnce.Do(func() {
		if os.MkdirAll(r.tmpDir(), 0o755) != nil {
			if err := os.MkdirAll(r.CacheDir, 0o755); err != nil {
				r.initErr = fmt.Errorf("harness: cache dir: %w", err)
				return
			}
		}
		r.reapTemps()
	})
	return r.initErr
}

// reapTemps deletes aged-out files from tmp/, the only place a store leaves
// one (entries and lock files live beside tmp/, never in it). Errors are
// ignored: the reaper is hygiene, not correctness — a file that cannot be
// listed or removed today will age out tomorrow.
func (r *Runner) reapTemps() {
	dir := r.tmpDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) < tmpMaxAge {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			r.Obs.Counter(MetricCacheReaped).Add(1)
		}
	}
}

// RunAll executes every spec (cache-first) and returns results in spec
// order. Every point runs even when one fails — each finished one stays
// cached — and the first error in spec order is returned.
func (r *Runner) RunAll(specs []scenario.Spec) ([]*scenario.Result, error) {
	return r.RunAllCtx(context.Background(), specs)
}

// RunAllCtx is RunAll with cooperative cancellation: once ctx is done, no
// new job starts, but every in-flight job runs to completion and writes
// its cache entry — an interrupted sweep never leaves torn state, and a
// re-run resumes from the cache. A cancelled sweep returns the completed
// results (spec order, skipped points absent) and ErrInterrupted. Each spec
// is normalized once, up front; one that does not validate is an errored
// point, and the others still run.
func (r *Runner) RunAllCtx(ctx context.Context, specs []scenario.Spec) ([]*scenario.Result, error) {
	norms := make([]scenario.Norm, len(specs))
	var refused []error
	for i, sp := range specs {
		n, err := sp.Normalize()
		if err != nil {
			if refused == nil {
				refused = make([]error, len(specs))
			}
			refused[i] = err
		}
		norms[i] = n
	}
	return r.runNorms(ctx, norms, refused)
}

// RunNormsCtx is RunAllCtx on points already normalized (Sweep.ExpandNorms),
// which it runs as they are.
func (r *Runner) RunNormsCtx(ctx context.Context, norms []scenario.Norm) ([]*scenario.Result, error) {
	return r.runNorms(ctx, norms, nil)
}

// runNorms runs norms as one batch; a point with an error in refused (nil,
// or one entry per point) settles as that error without running.
func (r *Runner) runNorms(ctx context.Context, norms []scenario.Norm, refused []error) ([]*scenario.Result, error) {
	if err := r.initCache(); err != nil {
		return nil, err
	}
	type out struct {
		res *scenario.Result
		err error
	}
	outs := make([]out, len(norms))
	root := r.Tracer.Start("sweep", nil)
	pool := r.NewPool(r.Workers)
	b := pool.start(norms, refused, root, r.OnProgress, func(i int, res *scenario.Result, err error) {
		outs[i] = out{res, err}
	})
	select {
	case <-b.Settled():
	case <-ctx.Done():
		b.Abort()
		<-b.Settled()
	}
	pool.Close(0)
	root.End()
	results := make([]*scenario.Result, 0, len(outs))
	var interrupted error
	for _, o := range outs {
		switch {
		case o.err == ErrInterrupted:
			interrupted = ErrInterrupted
		case o.err != nil:
			return nil, o.err
		default:
			results = append(results, o.res)
		}
	}
	return results, interrupted
}

// Run executes one spec through the same cache path as RunAll. The spec's
// one normalization validates it: a cache hit never runs the spec, and a
// spec that today's rules reject must not be served from a cache written
// under yesterday's.
func (r *Runner) Run(sp scenario.Spec) (*scenario.Result, error) {
	n, err := sp.Normalize()
	if err != nil {
		return nil, r.refuse(err)
	}
	return r.runOne(n, nil, nil)
}

// refuse settles the accounting of a job whose spec did not validate: it
// errored, and job.wall_ms observes it like every other outcome.
func (r *Runner) refuse(err error) error {
	r.Obs.Counter(MetricJobsErrored).Add(1)
	timeHist(r.Obs, MetricJobWallMs, time.Now())
	return err
}

// runOne executes one job end to end, its span under root and a simulation
// on a (nil: an arena from the lone-run pool), and settles the shared
// accounting: exactly one of jobs_done / jobs_errored increments, and
// job.wall_ms observes every outcome — simulated, cached, coalesced, or
// errored — so the histogram covers the whole sweep rather than just the
// misses.
func (r *Runner) runOne(n scenario.Norm, root *obs.Span, a *scenario.Arena) (*scenario.Result, error) {
	if err := r.initCache(); err != nil {
		return nil, err
	}
	started := time.Now()
	j := r.newJob(n)
	span := r.jobSpan(n.Spec(), j.hash, root)
	defer span.End()
	res, err := r.runJob(j, span, a)
	timeHist(r.Obs, MetricJobWallMs, started)
	if err != nil {
		span.SetAttr("outcome", "error")
		r.Obs.Counter(MetricJobsErrored).Add(1)
		return nil, err
	}
	r.Obs.Counter(MetricJobsDone).Add(1)
	return res, nil
}

// job is one validated spec and where its result lives: path is the cache
// entry, <dir>/<hash>.res ("" without a cache dir), and hash a substring of
// it, so a job's hash and path are one allocation.
type job struct {
	n          scenario.Norm
	path, hash string
}

// entrySuffix ends every cache entry's file name.
const entrySuffix = ".res"

func (r *Runner) newJob(n scenario.Norm) job {
	var id [32]byte
	hash := n.AppendHash(id[:0])
	if r.CacheDir == "" {
		return job{n: n, hash: string(hash)}
	}
	path := r.CacheDir + string(filepath.Separator) + string(hash) + entrySuffix
	return job{n: n, path: path, hash: path[len(r.CacheDir)+1 : len(path)-len(entrySuffix)]}
}

// runJob serves one job: cache hit, coalesce onto an identical in-flight
// job, or become the leader and simulate. A telemetry job is a replay.
func (r *Runner) runJob(j job, span *obs.Span, a *scenario.Arena) (*scenario.Result, error) {
	if j.n.Spec().Telemetry != nil {
		return r.replay(j, span, a)
	}
	lookup := r.Tracer.Start("cache-lookup", span)
	res, ok := r.load(j)
	lookup.End()
	if ok {
		r.hits.Add(1)
		r.Obs.Counter(MetricCacheHits).Add(1)
		span.SetAttr("outcome", "cached")
		return res, nil
	}
	// Singleflight: exactly one goroutine per hash proceeds past here at a
	// time; the rest wait on the leader's call and share its outcome. This
	// is what makes N identical specs in one sweep — or concurrent Run
	// calls from many server clients — exactly one simulation.
	r.flightMu.Lock()
	if c, ok := r.flight[j.hash]; ok {
		r.flightMu.Unlock()
		wait := r.Tracer.Start("coalesce-wait", span)
		<-c.done
		wait.End()
		return r.adoptCoalesced(j, c, span)
	}
	// err is pre-set and the settle deferred: even a leader that unwinds
	// in a panic releases its waiters, and with an error to return.
	c := &flightCall{done: make(chan struct{}), err: errAbandoned}
	if r.flight == nil {
		r.flight = map[string]*flightCall{}
	}
	r.flight[j.hash] = c
	r.flightMu.Unlock()
	defer func() {
		r.flightMu.Lock()
		delete(r.flight, j.hash)
		r.flightMu.Unlock()
		close(c.done)
	}()
	c.res, c.err = r.leaderRun(j, span, a)
	return c.res, c.err
}

// adoptCoalesced turns a settled in-flight call into this job's result.
// Waiters re-load from the cache when there is one — an independent copy,
// since each caller may carry a different Name — and otherwise take a
// shallow copy of the leader's result (the metric map is never mutated).
func (r *Runner) adoptCoalesced(j job, c *flightCall, span *obs.Span) (*scenario.Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	r.coalesced.Add(1)
	r.Obs.Counter(MetricCacheCoalesced).Add(1)
	span.SetAttr("outcome", "coalesced")
	if res, ok := r.load(j); ok {
		return res, nil
	}
	res := *c.res
	res.Spec = j.n.Spec()
	res.Cached = true
	return &res, nil
}

// leaderRun is the singleflight winner's path: take the hash's kernel lock,
// re-check the cache under it (another process may have simulated the hash
// while we blocked, and nothing can slip in between that check and owning
// the hash), otherwise simulate and store, and only then release.
func (r *Runner) leaderRun(j job, span *obs.Span, a *scenario.Arena) (*scenario.Result, error) {
	if j.path != "" {
		wait := r.Tracer.Start("lock-wait", span)
		// The zero-byte lock file is never unlinked: a later opener would
		// lock a fresh inode while a blocked one acquires the old.
		unlock, err := lockFile(j.path[:len(j.path)-len(entrySuffix)] + ".lock")
		wait.End()
		if err != nil {
			// A cache dir that takes no lock file degrades this job like one
			// that takes no entry: run unlocked. Singleflight still holds
			// inside the process; across processes exactly-once is
			// best-effort for this hash, and the span says so.
			span.SetAttr("cache_lock_error", err.Error())
			r.Obs.Counter(MetricCacheLockErrors).Add(1)
			unlock = func() {}
		}
		defer unlock()
		if res, ok := r.load(j); ok {
			r.coalesced.Add(1)
			r.Obs.Counter(MetricCacheCoalesced).Add(1)
			span.SetAttr("outcome", "coalesced")
			return res, nil
		}
	}
	res, err := r.simulateCounted(j, span, a)
	if err != nil {
		return nil, err
	}
	store := r.Tracer.Start("cache-store", span)
	serr := r.store(j, res)
	store.End()
	if serr != nil {
		// The simulation is done and paid for: a cache that cannot take it
		// costs the next caller a re-run, not this one its result.
		span.SetAttr("cache_store_error", serr.Error())
		r.Obs.Counter(MetricCacheStoreErrors).Add(1)
	}
	return res, nil
}

// replay serves a job whose spec has a telemetry block. The probes only
// observe, so the run is the plain point's simulation: it is simulated with
// them, never stored (its mechanism keys count the probe ticks, which a
// later plain hit must not read), and, when the hash's entry exists,
// checked against it. A simulated metric that differs from the entry, or is
// in only one of them, fails the job naming the hash and the key.
func (r *Runner) replay(j job, span *obs.Span, a *scenario.Arena) (*scenario.Result, error) {
	res, err := r.simulateCounted(j, span, a)
	if err != nil {
		return nil, err
	}
	lookup := r.Tracer.Start("cache-lookup", span)
	entry, ok := r.load(j)
	lookup.End()
	if !ok {
		return res, nil
	}
	if key := scenario.SimulatedDiff(entry.Metrics, res.Metrics); key != "" {
		r.Obs.Counter(MetricReplayMismatch).Add(1)
		return nil, fmt.Errorf("harness: telemetry run of %s disagrees with its cache entry on %q", j.hash, key)
	}
	r.Obs.Counter(MetricReplayVerified).Add(1)
	return res, nil
}

// simulateCounted simulates the job on a under a "simulate" span and counts
// the simulation: the engine counters it read and one cache miss.
func (r *Runner) simulateCounted(j job, span *obs.Span, a *scenario.Arena) (*scenario.Result, error) {
	simulate := r.Tracer.Start("simulate", span)
	res, err := r.simulate(j.n, span, a)
	simulate.End()
	if err != nil {
		return nil, err
	}
	observeRun(r.Obs, res.Metrics)
	r.misses.Add(1)
	r.Obs.Counter(MetricCacheMisses).Add(1)
	span.SetAttr("outcome", "simulated")
	return res, nil
}

// simulate runs the spec, turning a modelling panic into this one job's
// error (stack on the job span): the deferred unlock and singleflight
// settle above still run, and the worker pool calling us survives. A panic
// inside Network.RunUntil arrives re-raised by the coordinator; the stack
// worth keeping is the one it carries, the panicking goroutine's.
func (r *Runner) simulate(n scenario.Norm, span *obs.Span, a *scenario.Arena) (res *scenario.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			stack := debug.Stack()
			if wp, ok := v.(*netsim.WindowPanic); ok {
				v, stack = wp.Value, wp.Stack
			}
			span.SetAttr("panic_stack", string(stack))
			res, err = nil, fmt.Errorf("harness: simulation panicked: %v", v)
		}
	}()
	if r.run != nil {
		return r.run(n.Spec())
	}
	return n.Run(scenario.WithArena(a))
}

// load reads the job's cached result; any unreadable or malformed entry is
// a miss (and re-simulated), never an error. The entry's name is the spec's
// hash, so the spec itself is not stored: a hit carries the caller's
// normalized spec, as scenario.Run's result does.
func (r *Runner) load(j job) (*scenario.Result, bool) {
	if j.path == "" {
		return nil, false
	}
	buf := entryBufs.Get().(*[]byte)
	defer entryBufs.Put(buf)
	data, err := readEntry(j.path, *buf)
	*buf = data[:0]
	if err != nil {
		return nil, false
	}
	res, ok := decodeEntry(data, j.hash)
	if !ok {
		return nil, false
	}
	res.Spec = j.n.Spec()
	return res, true
}

// store writes the result atomically — a temp file in tmp/, renamed to the
// job's entry — so a crashed or concurrent sweep never leaves a truncated
// cache entry; tmp/ sits inside the cache dir, so the rename never crosses a
// filesystem. A temp file orphaned by a crash between creating and renaming
// it is reclaimed by a later Runner's startup reaper (see initCache).
func (r *Runner) store(j job, res *scenario.Result) error {
	if j.path == "" {
		return nil
	}
	base := filepath.Join(r.CacheDir, tmpSubdir, j.hash+".")
	tmp, err := createTemp(base)
	if errors.Is(err, fs.ErrNotExist) && os.Mkdir(r.tmpDir(), 0o755) == nil {
		// tmp/ was removed under a live Runner: put it back.
		tmp, err = createTemp(base)
	}
	if err != nil {
		return fmt.Errorf("harness: cache write: %w", err)
	}
	_, werr := tmp.Write(appendEntry(nil, res))
	cerr := tmp.Close()
	if err := errors.Join(werr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	return nil
}

// createTemp creates base followed by a random suffix, like os.CreateTemp
// but with the lock files' mode, 0644 before the umask: CreateTemp's 0600
// would make every renamed entry unreadable, so a miss, for any other user
// sharing the cache directory.
func createTemp(base string) (*os.File, error) {
	for try := 0; ; try++ {
		f, err := os.OpenFile(base+strconv.FormatUint(rand.Uint64(), 36), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, fs.ErrExist) || try == 100 {
			return f, err
		}
	}
}

// tmpSubdir, inside the cache dir, is where stores create their temp files.
const tmpSubdir = "tmp"

func (r *Runner) tmpDir() string {
	return filepath.Join(r.CacheDir, tmpSubdir)
}
