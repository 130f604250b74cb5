// Package workload generates the traffic the paper evaluates on: flow sizes
// drawn from the public WebSearch (DCTCP) and FB_Hadoop (Facebook) traces,
// with open-loop Poisson arrivals at a target average link load (§5.5 uses
// 50%).
package workload

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// CDFPoint is one breakpoint of a piecewise-linear flow-size CDF: P(size <=
// Bytes) = Cum.
type CDFPoint struct {
	Bytes float64
	Cum   float64
}

// CDF is a piecewise-linear cumulative distribution over flow sizes in
// bytes, sampled by inverse transform. This mirrors the distribution files
// shipped with the HPCC simulator that the paper's workloads come from.
type CDF struct {
	name   string
	points []CDFPoint
}

// NewCDF validates and builds a CDF. Points must be strictly increasing in
// Bytes, non-decreasing in Cum, start at Cum >= 0 and end at Cum == 1.
func NewCDF(name string, points []CDFPoint) (*CDF, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("workload: CDF %q needs >= 2 points", name)
	}
	for i, p := range points {
		if p.Bytes < 1 {
			return nil, fmt.Errorf("workload: CDF %q point %d: size %v below one byte", name, i, p.Bytes)
		}
		if p.Bytes > 1<<60 {
			return nil, fmt.Errorf("workload: CDF %q point %d: size %v beyond int64 range", name, i, p.Bytes)
		}
		if p.Cum < 0 || p.Cum > 1 {
			return nil, fmt.Errorf("workload: CDF %q point %d: cum %v out of [0,1]", name, i, p.Cum)
		}
		if i > 0 {
			if p.Bytes <= points[i-1].Bytes {
				return nil, fmt.Errorf("workload: CDF %q point %d: sizes not increasing", name, i)
			}
			if p.Cum < points[i-1].Cum {
				return nil, fmt.Errorf("workload: CDF %q point %d: cum decreasing", name, i)
			}
		}
	}
	if points[len(points)-1].Cum != 1 {
		return nil, fmt.Errorf("workload: CDF %q must end at cum=1", name)
	}
	cp := append([]CDFPoint(nil), points...)
	return &CDF{name: name, points: cp}, nil
}

// MustCDF is NewCDF for package-level literals; it panics on invalid input.
func MustCDF(name string, points []CDFPoint) *CDF {
	c, err := NewCDF(name, points)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the distribution's name.
func (c *CDF) Name() string { return c.name }

// MinBytes returns the smallest producible flow size.
func (c *CDF) MinBytes() int64 { return int64(c.points[0].Bytes) }

// MaxBytes returns the largest producible flow size.
func (c *CDF) MaxBytes() int64 { return int64(c.points[len(c.points)-1].Bytes) }

// Edges returns, in increasing order, the breakpoints at which the CDF
// rises: the upper ends of the (previous edge, edge] size ranges, the first
// from 0, that carry all of its probability mass.
func (c *CDF) Edges() []int64 {
	var out []int64
	prev := 0.0
	for _, p := range c.points {
		if p.Cum > prev {
			out = append(out, int64(p.Bytes))
		}
		prev = p.Cum
	}
	return out
}

// MeanBytes returns the analytic mean of the piecewise-linear distribution.
// Each linear CDF segment contributes (cum_i - cum_{i-1}) probability mass
// uniformly spread over (bytes_{i-1}, bytes_i], whose mean is the midpoint.
// Mass at the first point (points[0].Cum > 0) sits exactly at points[0].
func (c *CDF) MeanBytes() float64 {
	mean := c.points[0].Cum * c.points[0].Bytes
	for i := 1; i < len(c.points); i++ {
		dm := c.points[i].Cum - c.points[i-1].Cum
		mid := (c.points[i].Bytes + c.points[i-1].Bytes) / 2
		mean += float64(dm * mid)
	}
	return mean
}

// Sample draws a flow size via inverse transform with the supplied RNG.
// The result is at least 1 byte.
func (c *CDF) Sample(rng *sim.RNG) int64 {
	u := rng.Float64()
	if u <= c.points[0].Cum {
		return int64(c.points[0].Bytes)
	}
	// Find the first breakpoint with Cum >= u and interpolate within the
	// segment ending there.
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].Cum >= u })
	if i >= len(c.points) {
		return c.MaxBytes()
	}
	lo, hi := c.points[i-1], c.points[i]
	if hi.Cum == lo.Cum {
		return int64(hi.Bytes)
	}
	frac := (u - lo.Cum) / (hi.Cum - lo.Cum)
	size := lo.Bytes + float64(frac*(hi.Bytes-lo.Bytes))
	if size < 1 {
		size = 1
	}
	return int64(size)
}

// Quantile returns the flow size at cumulative probability q (0<=q<=1).
func (c *CDF) Quantile(q float64) int64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("workload: quantile %v out of range", q))
	}
	if q <= c.points[0].Cum {
		return int64(c.points[0].Bytes)
	}
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].Cum >= q })
	if i >= len(c.points) {
		return c.MaxBytes()
	}
	lo, hi := c.points[i-1], c.points[i]
	if hi.Cum == lo.Cum {
		return int64(hi.Bytes)
	}
	frac := (q - lo.Cum) / (hi.Cum - lo.Cum)
	return int64(lo.Bytes + float64(frac*(hi.Bytes-lo.Bytes)))
}
