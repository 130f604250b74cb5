package main

import (
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/scenario"
)

// formatBuckets renders the Figs 14/15 per-size-bucket FCT slowdown tables
// (average / median / p95 / p99) and the §5.5 headline reductions from a
// sweep's results: one table set per (name, backend, k, load) group in order
// of first appearance, each scheme's flow records pooled across seeds —
// §5.5's methodology.
func formatBuckets(results []*scenario.Result) (string, error) {
	type group struct {
		name, backend string
		k             int
		load          float64
	}
	var order []group
	byGroup := map[group][]*scenario.Result{}
	for _, r := range results {
		g := group{r.Spec.Name, r.Spec.BackendName(), r.Spec.Topo.K, r.Spec.Load}
		if byGroup[g] == nil {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], r)
	}
	var b strings.Builder
	for _, g := range order {
		rs := byGroup[g]
		merged, schemes, err := scenario.PoolFCT(rs)
		if err != nil {
			return "", fmt.Errorf("-format buckets needs every point simulated in this process "+
				"(the -cache keeps metrics, not flow records) and of a Poisson kind: %w", err)
		}
		cdf := rs[0].Spec.Workload.CDF
		tables, err := exp.FormatFCTTables(cdf, merged, schemes)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s (%s) fat-tree k=%d (%d hosts), %s @ %.0f%% load, %d run(s)\n",
			g.name, g.backend, g.k, rs[0].Spec.Hosts(), cdf, 100*g.load, len(rs))
		fmt.Fprintf(&b, "%s\n%s\n", tables, exp.FormatHeadlines(cdf, merged))
	}
	return b.String(), nil
}
