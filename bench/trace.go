package main

import (
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark from the
// outside. Parent is the index of the span that caused it, -1 for a root.
type span struct {
	Name     string
	Start    time.Duration // since the tracer was made
	End      time.Duration
	Parent   int
	Workload string // id shared by the spans of one traced repeat
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so bodies take one and run untraced when it is nil.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	wid   string
	spans []span
	// counts are raw sums over the current repeat, read where the work
	// happens: the layers' own stats after a staged run, cache accounting
	// after a sweep pass.
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// startRepeat names the repeat the following spans belong to and zeroes the
// counters, so they describe one repeat.
func (t *tracer) startRepeat(id string) {
	t.mu.Lock()
	t.wid, t.counts = id, map[string]float64{}
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Workload: t.wid})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = time.Since(t.t0)
	t.mu.Unlock()
}

// seconds sums the durations of every span with the given name.
func (t *tracer) seconds(name string) float64 {
	if t == nil {
		return 0
	}
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d.Seconds()
}

// selfSeconds is each span name's own time: duration minus the part its
// child spans cover.
func (t *tracer) selfSeconds() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		out[s.Name] += (s.End - s.Start - child[i]).Seconds()
	}
	return out
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto) through obs.WriteChromeTrace, which gives every root span and
// the tree under it a track of its own.
func (t *tracer) writeChrome(path string) error {
	spans := make([]obs.Span, len(t.spans))
	for i, s := range t.spans {
		spans[i] = obs.Span{ID: uint64(i + 1), Parent: uint64(s.Parent + 1), Name: s.Name,
			StartUnixNs: t.t0.Add(s.Start).UnixNano(), DurNs: int64(s.End - s.Start),
			Attrs: map[string]string{"workload": s.Workload, "parent": strconv.Itoa(s.Parent)}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
