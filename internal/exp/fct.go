package exp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// BucketsFor returns a workload's figure buckets (the x-axes of Figs 14 and
// 15): one (previous, edge] bucket per edge of the named CDF, labelled with
// its edge.
func BucketsFor(wl string) ([]metrics.Bucket, error) {
	cdf, ok := workload.ByName(wl)
	if !ok {
		return nil, fmt.Errorf("exp: no buckets for workload %q (have %v)", wl, workload.Names())
	}
	edges := cdf.Edges()
	out := make([]metrics.Bucket, len(edges))
	lo := int64(0)
	for i, hi := range edges {
		out[i] = metrics.Bucket{Label: sizeLabel(hi), LoByte: lo, HiByte: hi}
		lo = hi
	}
	return out, nil
}

// sizeLabel writes a byte count as the figures' axes do: 75B, 1KB, 30MB.
func sizeLabel(b int64) string {
	switch {
	case b%1_000_000 == 0:
		return fmt.Sprintf("%dMB", b/1_000_000)
	case b%1_000 == 0:
		return fmt.Sprintf("%dKB", b/1_000)
	}
	return fmt.Sprintf("%dB", b)
}

// SlowdownReduction computes the headline percentages of §5.5: the relative
// reduction of a statistic ("avg"|"median"|"p95"|"p99") for flows in
// (loByte, hiByte], scheme vs baseline. Positive = scheme is better.
func SlowdownReduction(stat string, scheme, baseline *metrics.FCTCollector, loByte, hiByte int64) float64 {
	pick := func(d *metrics.Dist) float64 {
		switch stat {
		case "avg":
			return d.Mean()
		case "median":
			return d.Median()
		case "p95":
			return d.P95()
		case "p99":
			return d.P99()
		default:
			panic("exp: unknown stat " + stat)
		}
	}
	b := pick(baseline.SlowdownDist(loByte, hiByte))
	s := pick(scheme.SlowdownDist(loByte, hiByte))
	if b == 0 {
		return 0
	}
	return 1 - s/b
}
