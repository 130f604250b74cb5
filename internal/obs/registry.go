// Package obs is the simulator's operational-observability layer: where
// internal/telemetry watches the simulated fabric (queue depths, flow
// rates), obs watches the simulator process itself — how fast sweeps run,
// what the cache is doing, where wall-clock time goes.
//
// Three pillars, all strictly opt-in with the same zero-cost-off contract
// the telemetry layer pinned:
//
//   - a metrics Registry of lock-cheap counters and histograms with an
//     expvar-style JSON snapshot, fed by the harness (cache hits, job
//     progress, and the engine counters of each simulated result);
//   - a span Tracer that turns a sweep into a root span with one child
//     span per job (cache-lookup → simulate → cache-store phases),
//     exported as JSONL and convertible to the Chrome trace-event format
//     for Perfetto / chrome://tracing;
//   - a live HTTP debug mux serving /debug/vars (registry snapshot),
//     /debug/pprof/* and /progress for long-running sweeps.
//
// Every type is nil-safe: methods on a nil *Registry, *Tracer, or on the
// nil instruments they hand out are no-ops, so call sites instrument
// unconditionally and a nil top-level handle turns the whole layer off at
// the cost of a pointer test.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The nil Counter discards
// adds, so holders never branch on configuration.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of base-2 magnitude buckets a Histogram keeps:
// bucket i counts observations in [2^(i-1), 2^i) for i > 0, bucket 0
// counts v < 1 (including zero and negatives). 64 buckets cover any
// float64 magnitude a sweep produces (nanoseconds through event counts).
const histBuckets = 64

// Histogram accumulates a value distribution in coarse base-2 buckets —
// enough to answer "are job wall times bimodal" without per-observation
// allocation. Observations take one mutex; jobs observe at millisecond
// scale, so contention is irrelevant.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
}

// Observe records v (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// bucketOf maps a value to its base-2 magnitude bucket.
func bucketOf(v float64) int {
	if v < 1 || math.IsNaN(v) {
		return 0
	}
	b := 1 + int(math.Log2(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// HistSnapshot is a histogram's point-in-time summary. P50/P90/P99 are
// bucket-resolution estimates (upper bound of the containing base-2
// bucket), not exact order statistics.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func (h *Histogram) snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// quantileLocked walks the buckets to the one containing rank q*count and
// returns its upper bound, clamped to the observed max (mu held).
func (h *Histogram) quantileLocked(q float64) float64 {
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			upper := 1.0
			if i > 0 {
				upper = math.Ldexp(1, i) // 2^i, bucket i covers [2^(i-1), 2^i)
			}
			return math.Min(upper, h.max)
		}
	}
	return h.max
}

// Registry is a named instrument table. Instruments are created on first
// lookup and live for the registry's lifetime, so callers cache the
// pointer and pay only the atomic op per update. All methods are safe for
// concurrent use; all are no-ops on a nil *Registry (returning nil
// instruments, whose methods are themselves no-ops).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it if needed (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is the registry's full state at one instant, the JSON body of
// /debug/vars. Maps are sorted-key stable under encoding/json.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value. On a nil registry it
// returns an empty (but non-nil-mapped) snapshot so callers can encode it
// unconditionally.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	// Instrument reads happen outside the registry lock: a histogram
	// snapshot takes the histogram's own mutex and must not serialize
	// against concurrent instrument creation.
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// CounterNames returns the registered counter names sorted, for stable
// summary lines.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
