package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sync"
	"time"
)

// Span is one timed region of sweep execution. A sweep is a root span;
// each job is a child carrying its spec hash/backend/seed; phases
// (cache-lookup, simulate, cache-store, export) are grandchildren. CPUNs
// and AllocBytes are process-wide deltas across the span — under a
// parallel sweep concurrent jobs inflate each other's numbers, so they
// are attribution hints, not exact costs. A job's simulate span is the one
// record of what its run cost the host: results carry only what was
// simulated.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUnixNs is the wall-clock start; DurNs the wall duration.
	StartUnixNs int64 `json:"start_unix_ns"`
	DurNs       int64 `json:"dur_ns"`
	// CPUNs is the process user+system CPU consumed while the span was
	// open (0 where the platform has no rusage).
	CPUNs int64 `json:"cpu_ns,omitempty"`
	// AllocBytes is the process heap-allocation byte delta across the span.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// Attrs are free-form labels: hash, backend, seed, outcome.
	Attrs map[string]string `json:"attrs,omitempty"`

	tracer *Tracer
	start  time.Time
	cpu0   int64
	alloc0 uint64
}

// Tracer collects finished spans and tracks open ones. All methods are
// safe for concurrent use and no-ops on a nil *Tracer (Start then returns
// a nil *Span, whose methods are also no-ops), so span instrumentation
// costs one pointer test when tracing is off.
type Tracer struct {
	mu     sync.Mutex
	nextID uint64
	done   []Span
	open   map[uint64]*Span
	// dropDone is set by DropFinished: End files nothing.
	dropDone bool
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{open: map[uint64]*Span{}}
}

// DropFinished makes t track open spans only: it releases the spans already
// filed, and End files no more. A long-running server whose one reader is
// Active calls it, so the tracer holds no more than the work in flight.
// No-op on nil.
func (t *Tracer) DropFinished() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropDone = true
	t.done = nil
	t.mu.Unlock()
}

// allocBytesNow reads the cumulative process heap-allocation bytes without
// stopping the world (runtime/metrics, unlike runtime.ReadMemStats).
func allocBytesNow() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// Start opens a span under parent (nil parent = root). Returns nil on a
// nil tracer.
func (t *Tracer) Start(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		Name:        name,
		StartUnixNs: time.Now().UnixNano(),
		tracer:      t,
		start:       time.Now(),
		cpu0:        processCPUNs(),
		alloc0:      allocBytesNow(),
	}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	t.nextID++
	s.ID = t.nextID
	t.open[s.ID] = s
	t.mu.Unlock()
	return s
}

// SetAttr labels the span (no-op on nil).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[key] = value
	s.tracer.mu.Unlock()
}

// End closes the span, folding in wall/CPU/alloc deltas, and files it with
// the tracer unless DropFinished was called (no-op on nil; ending twice
// files once).
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, isOpen := t.open[s.ID]; !isOpen {
		return
	}
	delete(t.open, s.ID)
	if t.dropDone {
		return
	}
	s.DurNs = time.Since(s.start).Nanoseconds()
	if cpu := processCPUNs(); cpu > 0 && s.cpu0 > 0 {
		s.CPUNs = cpu - s.cpu0
	}
	s.AllocBytes = int64(allocBytesNow() - s.alloc0)
	t.done = append(t.done, *s)
}

// Spans returns a copy of the finished spans in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.done))
	copy(out, t.done)
	return out
}

// ActiveSpan is an open span's live state, surfaced by /progress so a
// stalled sweep shows which jobs it is stuck in.
type ActiveSpan struct {
	ID        uint64            `json:"id"`
	Parent    uint64            `json:"parent,omitempty"`
	Name      string            `json:"name"`
	ElapsedNs int64             `json:"elapsed_ns"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// Active returns the currently open spans, oldest first.
func (t *Tracer) Active() []ActiveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ActiveSpan, 0, len(t.open))
	for _, s := range t.open {
		a := ActiveSpan{ID: s.ID, Parent: s.Parent, Name: s.Name,
			ElapsedNs: time.Since(s.start).Nanoseconds()}
		if len(s.Attrs) > 0 {
			a.Attrs = make(map[string]string, len(s.Attrs))
			for k, v := range s.Attrs {
				a.Attrs[k] = v
			}
		}
		out = append(out, a)
	}
	// Map iteration is unordered; oldest-first (smallest ID) reads best.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// WriteJSONL streams the finished spans one JSON object per line — the
// on-disk format `fnccbench sweep -spans` exports next to the sweep table.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("obs: span encode: %w", err)
		}
	}
	return bw.Flush()
}

// ReadSpansJSONL parses a JSONL span stream (blank lines skipped).
func ReadSpansJSONL(r io.Reader) ([]Span, error) {
	var spans []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("obs: spans line %d: %w", line, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: spans read: %w", err)
	}
	return spans, nil
}

// chromeEvent is one Chrome trace-event ("X" complete event). Perfetto and
// chrome://tracing both load the JSON-array format directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TsUs float64           `json:"ts"`
	Durs float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace converts spans to the Chrome trace-event JSON array.
// Each root span (and the job tree under it) gets its own track: the
// "thread" id is the span's root ancestor, so parallel jobs render as
// parallel rows instead of one overlapping smear.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	// Resolve each span's root ancestor for track assignment.
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	rootOf := func(id uint64) uint64 {
		for hops := 0; hops < len(spans); hops++ {
			p := parent[id]
			if p == 0 {
				return id
			}
			id = p
		}
		return id
	}
	// Jobs are the tracks: a span whose parent is a root (or itself a
	// root) anchors a track; phase spans inherit the enclosing job's.
	track := make(map[uint64]uint64, len(spans))
	var assign func(id uint64) uint64
	assign = func(id uint64) uint64 {
		if tid, ok := track[id]; ok {
			return tid
		}
		p := parent[id]
		var tid uint64
		switch {
		case p == 0: // root span: its own track
			tid = id
		case parent[p] == 0: // job span directly under a root
			tid = id
		default:
			tid = assign(p)
		}
		track[id] = tid
		return tid
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := s.Attrs
		if s.CPUNs > 0 || s.AllocBytes != 0 {
			args = make(map[string]string, len(s.Attrs)+2)
			for k, v := range s.Attrs {
				args[k] = v
			}
			args["cpu_ns"] = fmt.Sprintf("%d", s.CPUNs)
			args["alloc_bytes"] = fmt.Sprintf("%d", s.AllocBytes)
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "sweep",
			Ph:   "X",
			TsUs: float64(s.StartUnixNs) / 1e3,
			Durs: float64(s.DurNs) / 1e3,
			PID:  int(rootOf(s.ID)),
			TID:  assign(s.ID),
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}
