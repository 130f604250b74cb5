package telemetry

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The Reduce names; see Reduction.
const (
	ReduceMax, ReduceMean, ReduceMeanJain, ReduceMinJain = "max", "mean", "mean_jain", "min_jain"
	ReduceFirstBelow, ReduceDelayBelow                   = "first_below", "delay_below"
)

// noRows is each reduction's value before it has read a row (0 if absent).
var noRows = map[string]float64{ReduceFirstBelow: -1, ReduceDelayBelow: -1, ReduceMinJain: 1}

// Reduction is one figure metric as a fold over a Watch's rows. The probe
// applies it to each row just after writing it and never reads the ring
// back, so the metric does not depend on how many rows the ring keeps. It
// reads the rows with From <= time < To (To 0: no bound) and, of each, the N
// columns from Col, which Series names; Reduce says how:
//
//   - max: the largest value (0 over no rows);
//   - mean: the mean (0 over no rows);
//   - first_below, delay_below: the time in us, from 0 or from From, of the
//     first row whose value is under Below (-1: none is);
//   - mean_jain: the mean of Jain's index across the columns;
//   - min_jain: the minimum of 1 and Jain's index across all columns but
//     the last, over the rows where the last (active_flows) reads how many
//     the others are.
type Reduction struct {
	Metric string   `json:"metric"`
	Reduce string   `json:"reduce"`
	Series []string `json:"series"`
	Col, N int      `json:"-"`
	From   sim.Time `json:"from_ps,omitempty"`
	To     sim.Time `json:"to_ps,omitempty"`
	Below  float64  `json:"below,omitempty"`
	// Value is the metric over the rows folded so far.
	Value float64 `json:"value"`

	sum  float64
	rows int
}

// fold applies the reduction to the row written at now. Must not allocate.
func (r *Reduction) fold(now sim.Time, row []float64) {
	if now < r.From || r.To > 0 && now >= r.To {
		return
	}
	v := row[r.Col : r.Col+r.N]
	switch r.Reduce {
	case ReduceMax:
		r.Value = max(r.Value, v[0])
	case ReduceMean, ReduceMeanJain:
		x := v[0]
		if r.Reduce == ReduceMeanJain {
			x = metrics.JainIndex(v)
		}
		r.sum += x
		r.rows++
		r.Value = r.sum / float64(r.rows)
	case ReduceFirstBelow, ReduceDelayBelow:
		if r.rows == 0 && v[0] < r.Below {
			r.rows++
			if r.Reduce == ReduceDelayBelow {
				now -= r.From
			}
			r.Value = now.Micros()
		}
	case ReduceMinJain:
		if last := len(v) - 1; v[last] == float64(last) {
			r.Value = min(r.Value, metrics.JainIndex(v[:last]))
		}
	}
}
