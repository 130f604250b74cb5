package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Recorder is a fixed-capacity ring of column-oriented samples sharing one
// time axis. All storage is allocated up front (AddColumn before the first
// Begin); the sampling path — Begin then Put per column — only indexes into
// it, which is what keeps probe ticks allocation-free. When more samples
// arrive than the capacity holds, the oldest are overwritten, so the ring
// always retains the most recent window.
type Recorder struct {
	interval sim.Time
	times    []sim.Time
	cols     []column
	n        int // total samples taken (may exceed len(times))
}

type column struct {
	name string
	vals []float64
}

// NewRecorder returns a recorder sampling at the given interval with room
// for capacity samples (clamped to at least 1).
func NewRecorder(interval sim.Time, capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{interval: interval, times: make([]sim.Time, capacity)}
}

// AddColumn registers a named series and returns its column index for Put.
// Columns must be registered before the first Begin.
func (r *Recorder) AddColumn(name string) int {
	if r.n > 0 {
		panic("telemetry: AddColumn after sampling started")
	}
	r.cols = append(r.cols, column{name: name, vals: make([]float64, len(r.times))})
	return len(r.cols) - 1
}

// Begin opens the sample at the given time and returns its slot for Put.
// The slot's row is zeroed, so columns not Put this tick read as 0 rather
// than leaking the value the ring held a full wrap ago.
func (r *Recorder) Begin(now sim.Time) int {
	slot := r.n % len(r.times)
	r.times[slot] = now
	for c := range r.cols {
		r.cols[c].vals[slot] = 0
	}
	r.n++
	return slot
}

// Put records one column's value for the sample opened by Begin.
func (r *Recorder) Put(slot, col int, v float64) {
	r.cols[col].vals[slot] = v
}

// Samples returns how many samples have been taken (including overwritten).
func (r *Recorder) Samples() int { return r.n }

// Series is one named value column, aligned with Output.TimesUs.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// TraceRecord is one flight-recorder event in export form (JSONL rows).
type TraceRecord struct {
	AtUs    float64 `json:"at_us"`
	Kind    string  `json:"kind"`
	Node    int32   `json:"node"`
	Port    int     `json:"port"`
	Type    string  `json:"type"`
	Flow    uint64  `json:"flow,omitempty"`
	Seq     int64   `json:"seq,omitempty"`
	Size    int     `json:"size,omitempty"`
	RateBps int64   `json:"rate_bps,omitempty"`
}

// Output is a run's exported telemetry: the retained sample window in
// chronological order plus any captured trace events. It marshals to JSON
// for export (series.json); the harness cache stores it in its own binary
// entry.
type Output struct {
	// IntervalUs is the sampling period in microseconds.
	IntervalUs float64 `json:"interval_us"`
	// Samples counts all samples taken; when it exceeds len(TimesUs) the
	// ring dropped the oldest.
	Samples int `json:"samples"`
	// TimesUs is the shared time axis (microseconds) of every series.
	TimesUs []float64 `json:"times_us,omitempty"`
	// Series holds one value column per probed quantity.
	Series []Series `json:"series,omitempty"`
	// TraceTotal counts all events the flight recorder saw; Trace retains
	// the most recent TraceCap of them.
	TraceTotal uint64        `json:"trace_total,omitempty"`
	Trace      []TraceRecord `json:"trace,omitempty"`
}

// Output unwraps the ring into chronological series.
func (r *Recorder) Output() *Output {
	kept := r.n
	if kept > len(r.times) {
		kept = len(r.times)
	}
	start := 0
	if r.n > len(r.times) {
		start = r.n % len(r.times)
	}
	out := &Output{
		IntervalUs: r.interval.Micros(),
		Samples:    r.n,
		TimesUs:    make([]float64, kept),
		Series:     make([]Series, len(r.cols)),
	}
	for i := 0; i < kept; i++ {
		out.TimesUs[i] = r.times[(start+i)%len(r.times)].Micros()
	}
	for c, col := range r.cols {
		vals := make([]float64, kept)
		for i := 0; i < kept; i++ {
			vals[i] = col.vals[(start+i)%len(r.times)]
		}
		out.Series[c] = Series{Name: col.name, Values: vals}
	}
	return out
}

// SeriesByName returns the named series, or nil if absent.
func (o *Output) SeriesByName(name string) *Series {
	for i := range o.Series {
		if o.Series[i].Name == name {
			return &o.Series[i]
		}
	}
	return nil
}

// SeriesCSV renders series i as "time_us,value" lines under a "# name"
// header, the format for re-plotting the paper's time-series figures. Times
// are rounded to the simulator's picosecond grid first.
func (o *Output) SeriesCSV(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\ntime_us,value\n", o.Series[i].Name)
	for j, v := range o.Series[i].Values {
		t := sim.Time(float64(o.TimesUs[j]*float64(sim.Microsecond)) + 0.5)
		fmt.Fprintf(&b, "%.3f,%.3f\n", t.Micros(), v)
	}
	return b.String()
}

// TraceRecords converts netsim trace events to export form.
func TraceRecords(evs []netsim.TraceEvent) []TraceRecord {
	out := make([]TraceRecord, len(evs))
	for i, ev := range evs {
		out[i] = TraceRecord{
			AtUs:    ev.At.Micros(),
			Kind:    ev.Kind.String(),
			Node:    ev.Node,
			Port:    ev.Port,
			Type:    ev.Type.String(),
			Flow:    ev.FlowID,
			Seq:     ev.Seq,
			Size:    ev.Size,
			RateBps: ev.Rate,
		}
	}
	return out
}

// WriteTraceJSONL writes one JSON object per line, the conventional format
// for event traces consumed by external tooling.
func WriteTraceJSONL(w io.Writer, recs []TraceRecord) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("telemetry: trace record %d: %w", i, err)
		}
	}
	return nil
}
