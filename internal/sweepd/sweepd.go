// Package sweepd is the long-running sweep service: an HTTP/JSON front end
// over the harness Runner's exactly-once execution core. Clients POST
// scenario sweeps (a base spec plus a grid, or an explicit spec list), the
// server expands them to jobs, runs the jobs on one bounded worker pool
// shared across every live sweep, and streams per-point results back as
// NDJSON while the sweep is still running.
//
// The server adds nothing to the exactly-once story — it inherits the
// Runner's two primitives wholesale:
//
//   - the spec content hash is the job identity, so resubmitting a sweep
//     (or two clients submitting overlapping grids) re-uses the same cache
//     entries;
//   - the Runner's in-process singleflight coalesces identical jobs that
//     are in flight at the same moment, whichever sweeps they came from;
//   - the Runner's per-hash kernel lock (flock on <hash>.lock, held across
//     simulate + store) extends that to server processes sharing one cache
//     directory, and a server killed mid-job leaves nothing to clean up:
//     the kernel releases its locks. On a build without flock two servers
//     may simulate one hash twice; the atomic temp-file + rename store
//     still keeps every cache entry whole.
//
// A job whose simulation panics is an errored point of its sweep, not the
// end of the server (the Runner contains the panic and releases the hash).
//
// Admission is continuous (Orca-style): jobs from a newly submitted sweep
// interleave with an older sweep's remaining jobs on the same worker pool
// instead of queueing behind them sweep-by-sweep.
package sweepd

import (
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Registry metric names the server maintains, alongside the harness.*
// counters its Runner feeds.
const (
	MetricRequests        = "server.requests"
	MetricRequestErrors   = "server.request_errors"
	MetricSweepsSubmitted = "server.sweeps_submitted"
	MetricJobsQueued      = "server.jobs_queued"
	MetricPointsStreamed  = "server.points_streamed"
	MetricRequestMs       = "server.request_ms"
)

// maxFinishedSweeps bounds how many finished sweeps (and their streamed
// points) the server retains for replay; older ones are evicted at the next
// submit and their ids answer 404. Live sweeps are never evicted.
const maxFinishedSweeps = 64

// Config assembles a Server.
type Config struct {
	// Runner executes jobs; its CacheDir is the service's shared store and
	// its Obs/Tracer (if set) pick up the per-job accounting. Required.
	Runner *harness.Runner
	// Workers bounds the shared job pool; <= 0 means GOMAXPROCS.
	Workers int
	// Logger receives request and lifecycle logs; nil discards.
	Logger *slog.Logger
	// Reg receives the server.* metrics; nil disables them (the Runner's
	// own registry is independent).
	Reg *obs.Registry
	// Tracer parents each sweep's job spans under a per-sweep root span;
	// nil disables.
	Tracer *obs.Tracer
}

// Server owns the sweep table and the worker pool. Create with New, serve
// its Handler, and stop with Drain.
type Server struct {
	runner *harness.Runner
	logger *slog.Logger
	reg    *obs.Registry
	tracer *obs.Tracer

	mu     sync.Mutex
	sweeps map[string]*sweepState
	order  []string // submission order, for stable listings
	seq    int

	jobs     chan job
	draining bool
	drained  chan struct{} // closed when every worker has exited
	workerWG sync.WaitGroup
}

// job is one grid point of one sweep.
type job struct {
	sw  *sweepState
	idx int
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("sweepd: Config.Runner is required")
	}
	// The shared job pool is sized by the central GOMAXPROCS budget (jobs
	// submitted to the service run serial simulations, so simWorkers is 1).
	workers := harness.PoolWorkers(cfg.Workers, 0)
	logger := cfg.Logger
	if logger == nil {
		logger, _ = obs.NewLogger(obs.LogOff, nil)
	}
	s := &Server{
		runner:  cfg.Runner,
		logger:  logger,
		reg:     cfg.Reg,
		tracer:  cfg.Tracer,
		sweeps:  map[string]*sweepState{},
		jobs:    make(chan job),
		drained: make(chan struct{}),
	}
	s.workerWG.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	go func() {
		s.workerWG.Wait()
		close(s.drained)
	}()
	return s, nil
}

// worker drains the shared job channel until Drain closes it. In-flight
// jobs always run to completion (and write their cache entries) — the
// RunAllCtx contract, inherited here by construction: a worker that has
// taken a job finishes it before checking the channel again.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.jobs {
		s.runJob(j)
	}
}

// runJob executes one grid point through the Runner's exactly-once core
// and publishes the outcome to the sweep's result stream.
func (s *Server) runJob(j job) {
	sw := j.sw
	sw.jobStarted()
	res, err := s.runner.RunUnder(sw.specs[j.idx], sw.root)
	sw.complete(j.idx, res, err)
	s.reg.Counter(MetricPointsStreamed).Add(1)
	if err != nil {
		s.logger.Warn("job failed", "sweep", sw.id, "point", j.idx, "err", err)
	}
}

// Submit registers a new sweep and enqueues its jobs. The returned state
// is live immediately: results stream as workers finish points.
func (s *Server) Submit(specs []scenario.Spec) (*sweepState, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sweepd: sweep has no points")
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("sweepd: point %d: %w", i, err)
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.seq++
	sw := newSweepState(fmt.Sprintf("s-%d", s.seq), specs, s.tracer)
	s.evictLocked()
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	s.mu.Unlock()

	s.reg.Counter(MetricSweepsSubmitted).Add(1)
	s.reg.Counter(MetricJobsQueued).Add(int64(len(specs)))
	s.logger.Info("sweep submitted", "id", sw.id, "points", len(specs))

	// Feed from a dedicated goroutine so a huge sweep never blocks the
	// submitting HTTP handler; Drain aborts the feed via sw.stop.
	go func() {
		for i := range specs {
			select {
			case s.jobs <- job{sw: sw, idx: i}:
			case <-sw.stop:
				sw.skipFrom(i)
				return
			}
		}
		sw.fed()
	}()
	return sw, nil
}

var errDraining = fmt.Errorf("sweepd: server is draining")

// Drain stops the service gracefully, mirroring RunAllCtx's interrupt
// semantics at service scope: no new sweeps are admitted, queued-but-
// unstarted jobs are skipped (their sweeps finish as interrupted), and
// every in-flight job runs to completion — writing its cache entry — so a
// restarted server resumes the remainder from cache. Returns when the
// pool is idle or timeout elapses (0 waits forever).
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.drained
		return nil
	}
	s.draining = true
	live := make([]*sweepState, 0, len(s.sweeps))
	for _, sw := range s.sweeps {
		live = append(live, sw)
	}
	s.mu.Unlock()

	s.logger.Info("draining", "live_sweeps", len(live))
	// Stop the feeders first: once every feeder has exited (skipping its
	// unqueued remainder), nothing new can land on s.jobs and closing the
	// channel is safe.
	var fed sync.WaitGroup
	for _, sw := range live {
		sw.abort()
		fed.Add(1)
		go func(sw *sweepState) { defer fed.Done(); <-sw.feederDone }(sw)
	}
	fed.Wait()
	close(s.jobs)

	if timeout <= 0 {
		<-s.drained
		return nil
	}
	select {
	case <-s.drained:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("sweepd: drain timed out after %v", timeout)
	}
}

// evictLocked drops the oldest finished sweeps beyond maxFinishedSweeps
// (s.mu held; sweepState.mu nests inside it, never the other way round).
func (s *Server) evictLocked() {
	var finished []string // oldest first
	for _, id := range s.order {
		if s.sweeps[id].status().Finished {
			finished = append(finished, id)
		}
	}
	if len(finished) <= maxFinishedSweeps {
		return
	}
	for _, id := range finished[:len(finished)-maxFinishedSweeps] {
		delete(s.sweeps, id)
	}
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return s.sweeps[id] == nil })
}

// get looks up a sweep by id.
func (s *Server) get(id string) (*sweepState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// statuses snapshots every sweep in submission order — the /sweeps listing
// and the per-sweep rows on /progress.
func (s *Server) statuses() []Status {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	table := make(map[string]*sweepState, len(s.sweeps))
	for k, v := range s.sweeps {
		table[k] = v
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		out = append(out, table[id].status())
	}
	return out
}
