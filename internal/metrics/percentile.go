package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Dist accumulates scalar observations and answers exact order statistics.
// The evaluation's sample counts (thousands of flows per bucket) are small
// enough that an exact sorted-sample implementation is both simpler and more
// trustworthy than a streaming sketch.
type Dist struct {
	vals   []float64
	sorted bool
}

// NewDist returns an empty distribution.
func NewDist() *Dist { return &Dist{} }

// Observe records one value. NaN is rejected with a panic: it silently
// poisons every downstream statistic.
func (d *Dist) Observe(v float64) {
	if math.IsNaN(v) {
		panic("metrics: Observe(NaN)")
	}
	d.vals = append(d.vals, v)
	d.sorted = false
}

// Merge folds other's observations into d (for the parallel seed runner).
func (d *Dist) Merge(other *Dist) {
	d.vals = append(d.vals, other.vals...)
	d.sorted = false
}

// N returns the number of observations.
func (d *Dist) N() int { return len(d.vals) }

// Mean returns the arithmetic mean (0 if empty).
func (d *Dist) Mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) using the
// nearest-rank-with-interpolation definition (same as numpy's "linear").
// Returns 0 for an empty distribution.
func (d *Dist) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	n := len(d.vals)
	if n == 0 {
		return 0
	}
	d.ensureSorted()
	if n == 1 {
		return d.vals[0]
	}
	pos := float64(q * float64(n-1))
	lo := int(pos)
	if lo >= n-1 {
		return d.vals[n-1]
	}
	frac := pos - float64(lo)
	return float64(d.vals[lo]*(1-frac)) + float64(d.vals[lo+1]*frac)
}

// Median is Quantile(0.5).
func (d *Dist) Median() float64 { return d.Quantile(0.5) }

// P95 is Quantile(0.95).
func (d *Dist) P95() float64 { return d.Quantile(0.95) }

// P99 is Quantile(0.99).
func (d *Dist) P99() float64 { return d.Quantile(0.99) }

// Max returns the largest observation (0 if empty).
func (d *Dist) Max() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.vals[len(d.vals)-1]
}

// Min returns the smallest observation (0 if empty).
func (d *Dist) Min() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.vals[0]
}

// JainIndex computes Jain's fairness index over a set of throughputs:
// (Σx)² / (n·Σx²). It is 1.0 for perfectly equal allocations and 1/n for a
// single hog, and is the standard summary for the Fig 13e fairness runs.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += float64(x * x)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
