// Package benchpair measures a ratio between two runs inside one benchmark.
// Only tests import it.
//
// A ratio taken from two separate benchmarks divides wall times measured
// seconds apart, so it follows whatever load each one met. Here each of b.N
// pairs runs both sides back to back, the side that goes first alternating
// from pair to pair, and times each side on its own. The benchmark reports
// the median of the b.N per-pair ratios as its "ratio" column: load that
// lands on a pair slows both of its sides, or lands on a few pairs of many.
package benchpair

import (
	"slices"
	"testing"
	"time"
)

// Ratio runs b.N pairs of num and den and reports the median of num's time
// over den's as the "ratio" metric. It allocates nothing between the pairs,
// so two sides that allocate nothing read 0 allocs/op. A side must take long
// enough that its two clock reads cost under 1 % of it: batch a short step
// into one side.
func Ratio(b *testing.B, num, den func()) {
	ratios := make([]float64, b.N)
	b.ResetTimer()
	for i := range ratios {
		first, second := num, den
		if i%2 == 1 {
			first, second = den, num
		}
		t0 := time.Now()
		first()
		t1 := time.Now()
		second()
		r := float64(t1.Sub(t0)) / float64(time.Since(t1))
		if i%2 == 1 {
			r = 1 / r
		}
		ratios[i] = r
	}
	b.StopTimer()
	slices.Sort(ratios)
	n := len(ratios)
	b.ReportMetric((ratios[(n-1)/2]+ratios[n/2])/2, "ratio")
}
