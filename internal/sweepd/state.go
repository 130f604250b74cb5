package sweepd

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// Point is one streamed sweep result: the harness export row (sweep
// coordinates + metric map) plus the service-level envelope. Errored
// points carry Error instead of a Row; skipped points (drain) carry
// Skipped. Exactly total points are eventually streamed per sweep.
type Point struct {
	// Index is the point's position in the expanded sweep (spec order),
	// NOT its completion rank — points stream in completion order.
	Index int `json:"index"`
	// Cached is true when the point was served from the disk cache or
	// coalesced onto an identical in-flight job rather than simulated.
	Cached  bool   `json:"cached,omitempty"`
	Error   string `json:"error,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
	// Row is the same shape `fnccbench sweep -format json` exports.
	Row *harness.Row `json:"row,omitempty"`
}

// Status is a sweep's point-in-time summary: the /sweeps listing, the
// per-sweep row on /progress, and the poll target for clients that do not
// stream.
type Status struct {
	ID     string `json:"id"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Cached int    `json:"cached"`
	// Errored counts failed points, Skipped the points a drain abandoned
	// before they started.
	Errored  int  `json:"errored"`
	Skipped  int  `json:"skipped"`
	Running  int  `json:"running"`
	Finished bool `json:"finished"`
	// Interrupted is set when a drain skipped points; resubmitting the
	// same sweep to a restarted server serves the finished prefix from
	// cache and simulates only the remainder.
	Interrupted bool      `json:"interrupted,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	ElapsedMs   float64   `json:"elapsed_ms"`
}

// sweepState is one sweep's entry in the table: its batch on the pool,
// which keeps the counts, and the points streamed so far in completion
// order, with the streamers waiting for the next one.
type sweepState struct {
	id        string
	total     int
	root      *obs.Span
	submitted time.Time
	batch     *harness.Batch

	mu     sync.Mutex
	points []Point // completion order
	// waiters are streamer wake-up channels, signalled (closed) whenever
	// points grow.
	waiters []chan struct{}
}

func newSweepState(id string, total int, tracer *obs.Tracer) *sweepState {
	sw := &sweepState{id: id, total: total, submitted: time.Now()}
	sw.root = tracer.Start("sweep", nil)
	sw.root.SetAttr("sweep_id", id)
	return sw
}

// add publishes one settled point, ends the sweep span with the last one,
// and wakes every streamer.
func (sw *sweepState) add(p Point) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.points = append(sw.points, p)
	if len(sw.points) == sw.total {
		sw.root.SetAttr("points", strconv.Itoa(sw.total))
		sw.root.End()
	}
	for _, w := range sw.waiters {
		close(w)
	}
	sw.waiters = nil
}

// await returns a channel that closes the next time the sweep's state
// advances past n points; if it already has, the returned channel is
// closed immediately.
func (sw *sweepState) await(n int) <-chan struct{} {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ch := make(chan struct{})
	if len(sw.points) > n {
		close(ch)
		return ch
	}
	sw.waiters = append(sw.waiters, ch)
	return ch
}

// snapshot copies the points at [from:]; a from beyond the current point
// count yields an empty batch rather than a panic.
func (sw *sweepState) snapshot(from int) []Point {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if from > len(sw.points) {
		from = len(sw.points)
	}
	pts := make([]Point, len(sw.points)-from)
	copy(pts, sw.points[from:])
	return pts
}

func (sw *sweepState) status() Status {
	p := sw.batch.Progress()
	return Status{
		ID:          sw.id,
		Total:       p.Total,
		Done:        p.Done,
		Cached:      p.Cached,
		Errored:     p.Errored,
		Skipped:     p.Skipped,
		Running:     p.InFlight,
		Finished:    p.Done+p.Errored+p.Skipped == p.Total,
		Interrupted: p.Skipped > 0,
		SubmittedAt: sw.submitted,
		ElapsedMs:   float64(time.Since(sw.submitted).Nanoseconds()) / 1e6,
	}
}
