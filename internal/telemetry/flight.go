package telemetry

import "repro/internal/netsim"

// flightRecorder keeps the most recent limit events of a network's trace
// stream in a ring, and counts every event it was shown.
type flightRecorder struct {
	limit  int
	events []netsim.TraceEvent // grows to limit, then wraps at start
	start  int
	total  uint64
}

// observe ingests one event (installed as Network.Trace).
func (r *flightRecorder) observe(ev netsim.TraceEvent) {
	r.total++
	if len(r.events) < r.limit {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.start] = ev
	r.start = (r.start + 1) % r.limit
}

// inOrder returns the retained events in arrival order.
func (r *flightRecorder) inOrder() []netsim.TraceEvent {
	out := make([]netsim.TraceEvent, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	return append(out, r.events[:r.start]...)
}
