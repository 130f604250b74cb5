// Package sweepd is the long-running sweep service: a sweep table and an
// HTTP/JSON front end over one server-lifetime harness.Pool. Clients POST
// scenario sweeps (a base spec plus a grid), the server expands each to a
// batch on the pool it shares with every live sweep, and streams per-point
// results back as NDJSON while the sweep is still running.
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
// Admission is continuous (Orca-style): the pool feeds a newly submitted
// sweep's jobs in turn with an older sweep's remaining ones instead of
// queueing them behind it, and its GOMAXPROCS budget holds whatever widths
// the live sweeps' points ask for.
package sweepd

import (
	"errors"
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

// maxFinishedSweeps and maxFinishedPoints bound the finished sweeps the
// server retains for replay, by count and by the points they hold (one
// submit's worth). Older ones are evicted at the next submit and their ids
// answer 404; the newest finished sweep and every live one stay.
const (
	maxFinishedSweeps = 64
	maxFinishedPoints = maxSubmitPoints
)

// Config assembles a Server.
type Config struct {
	// Runner executes jobs. Its CacheDir is the service's shared store. Its
	// Obs, if set, takes the server.* metrics beside the per-job ones and is
	// what /debug/vars serves. Its Tracer, if set, takes a root span per
	// sweep with its jobs' spans under it and an http span per request;
	// /progress lists the open ones, and New makes it drop finished spans,
	// which nothing in the server reads. Required.
	Runner *harness.Runner
	// Workers bounds the shared job pool; <= 0 means GOMAXPROCS.
	Workers int
	// Logger receives request and lifecycle logs; nil discards.
	Logger *slog.Logger
}

// Server owns the sweep table and the pool. Create with New, serve its
// Handler, and stop with Drain.
type Server struct {
	pool   *harness.Pool
	logger *slog.Logger
	reg    *obs.Registry
	tracer *obs.Tracer

	mu       sync.Mutex
	sweeps   map[string]*sweepState
	order    []string // submission order, for stable listings
	seq      int
	draining bool
}

// New builds a Server and starts its pool.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("sweepd: Config.Runner is required")
	}
	logger := cfg.Logger
	if logger == nil {
		logger, _ = obs.NewLogger(obs.LogOff, nil)
	}
	cfg.Runner.Tracer.DropFinished()
	return &Server{
		pool:   cfg.Runner.NewPool(cfg.Workers),
		logger: logger,
		reg:    cfg.Runner.Obs,
		tracer: cfg.Runner.Tracer,
		sweeps: map[string]*sweepState{},
	}, nil
}

// Submit registers a new sweep and starts its batch on the pool. The
// returned state is live immediately: results stream as points finish.
func (s *Server) Submit(specs []scenario.Spec) (*sweepState, error) {
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("sweepd: point %d: %w", i, err)
		}
	}
	return s.start(specs)
}

// start is Submit on specs already validated.
func (s *Server) start(specs []scenario.Spec) (*sweepState, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sweepd: sweep has no points")
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.seq++
	sw := newSweepState(fmt.Sprintf("s-%d", s.seq), len(specs), s.tracer)
	s.evictLocked()
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	sw.batch = s.pool.Start(specs, sw.root, nil, func(i int, res *scenario.Result, err error) {
		s.settle(sw, i, res, err)
	})
	s.mu.Unlock()

	s.reg.Counter(MetricSweepsSubmitted).Add(1)
	s.reg.Counter(MetricJobsQueued).Add(int64(len(specs)))
	s.logger.Info("sweep submitted", "id", sw.id, "points", len(specs))
	return sw, nil
}

// settle publishes one point of sw: the export row of its result, its
// error, or the skip a drain left it with.
func (s *Server) settle(sw *sweepState, i int, res *scenario.Result, err error) {
	p := Point{Index: i}
	switch {
	case errors.Is(err, harness.ErrInterrupted):
		p.Skipped = true
	case err != nil:
		p.Error = err.Error()
		s.logger.Warn("job failed", "sweep", sw.id, "point", i, "err", err)
	default:
		p.Cached = res.Cached
		row := harness.Rows([]*scenario.Result{res})[0]
		p.Row = &row
	}
	if !p.Skipped {
		s.reg.Counter(MetricPointsStreamed).Add(1)
	}
	sw.add(p)
}

var errDraining = fmt.Errorf("sweepd: server is draining")

// Drain stops the service gracefully, mirroring RunAllCtx's interrupt
// semantics at service scope: no new sweeps are admitted, every sweep's
// unstarted points are skipped (the sweep finishes as interrupted), and
// every in-flight job runs to completion — writing its cache entry — so a
// restarted server resumes the remainder from cache. Returns when the pool
// is idle or timeout elapses (0 waits forever); a second call waits too.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.draining = true
	for _, sw := range s.sweeps {
		sw.batch.Abort()
	}
	s.logger.Info("draining", "sweeps", len(s.sweeps))
	s.mu.Unlock()
	return s.pool.Close(timeout)
}

// evictLocked drops the oldest finished sweeps while more than
// maxFinishedSweeps are finished or their points sum past
// maxFinishedPoints, keeping the newest finished one (s.mu held). The pool's
// and batches' locks nest inside s.mu, never the other way round: settle,
// which runs under a batch's lock, never takes it.
func (s *Server) evictLocked() {
	var finished []string // oldest first
	points := 0
	for _, id := range s.order {
		if sw := s.sweeps[id]; sw.status().Finished {
			finished = append(finished, id)
			points += sw.total
		}
	}
	for len(finished) > 1 && (len(finished) > maxFinishedSweeps || points > maxFinishedPoints) {
		points -= s.sweeps[finished[0]].total
		delete(s.sweeps, finished[0])
		finished = finished[1:]
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
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.sweeps[id].status())
	}
	return out
}
