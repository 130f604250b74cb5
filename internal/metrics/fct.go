package metrics

import (
	"sort"

	"repro/internal/sim"
)

// FCTRecord captures one completed flow.
type FCTRecord struct {
	FlowID    uint64
	SizeBytes int64
	Start     sim.Time
	Finish    sim.Time
	// Ideal is the standalone completion time of the same flow on an empty
	// network (store-and-forward first packet + remaining bytes at the
	// bottleneck rate). Slowdown = actual / ideal, the paper's metric.
	Ideal sim.Time
}

// FCT returns the measured completion time.
func (r FCTRecord) FCT() sim.Time { return r.Finish - r.Start }

// Slowdown returns FCT normalized by the ideal FCT (>= 1 in a well-behaved
// simulation; values below 1 indicate an ideal-model mismatch and are
// clamped so they remain visible but cannot flip comparisons).
func (r FCTRecord) Slowdown() float64 {
	if r.Ideal <= 0 {
		return 0
	}
	s := float64(r.FCT()) / float64(r.Ideal)
	if s < 1 {
		return 1
	}
	return s
}

// FCTCollector accumulates completed flows for one simulation run.
type FCTCollector struct {
	Records []FCTRecord
}

// NewFCTCollector returns an empty collector.
func NewFCTCollector() *FCTCollector { return &FCTCollector{} }

// Record appends one completed flow.
func (c *FCTCollector) Record(r FCTRecord) { c.Records = append(c.Records, r) }

// Merge folds another collector's records into c.
func (c *FCTCollector) Merge(o *FCTCollector) {
	c.Records = append(c.Records, o.Records...)
}

// N returns the number of completed flows.
func (c *FCTCollector) N() int { return len(c.Records) }

// SlowdownDist returns the slowdown distribution of flows whose size lies in
// (lo, hi] bytes. Pass lo=0 to include the smallest flows, hi=1<<62 for no
// upper bound.
func (c *FCTCollector) SlowdownDist(lo, hi int64) *Dist {
	d := NewDist()
	for _, r := range c.Records {
		if r.SizeBytes > lo && r.SizeBytes <= hi {
			d.Observe(r.Slowdown())
		}
	}
	return d
}

// SortByStart orders records chronologically (stable output for goldens).
func (c *FCTCollector) SortByStart() {
	sort.Slice(c.Records, func(i, j int) bool {
		if c.Records[i].Start != c.Records[j].Start {
			return c.Records[i].Start < c.Records[j].Start
		}
		return c.Records[i].FlowID < c.Records[j].FlowID
	})
}

// Counter is a named monotonic event counter (PFC pauses, ECN marks, drops).
type Counter struct {
	Name string
	N    int64
}

// Inc adds one.
func (c *Counter) Inc() { c.N++ }

// Add adds n (n may be negative only in tests; production callers add >= 0).
func (c *Counter) Add(n int64) { c.N += n }
