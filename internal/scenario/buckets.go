package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// bucketStats are the four panels of Figs 14 and 15, in print order.
var bucketStats = []struct {
	name string
	of   func(*metrics.Dist) float64
}{
	{"avg", (*metrics.Dist).Mean},
	{"median", (*metrics.Dist).Median},
	{"p95", (*metrics.Dist).P95},
	{"p99", (*metrics.Dist).P99},
}

// CheckBuckets reports whether a spec's results can be rendered by
// FormatBuckets: only the kinds that read workload.cdf (fct and mixed) draw
// their flow sizes from a CDF, whose breakpoints are the tables' size buckets.
func CheckBuckets(s Spec) error {
	if r := rowOf(s.Kind); r == nil || !r.free.has(knobCDF) {
		return fmt.Errorf("scenario: %q is kind %q; the per-size-bucket tables need one of the kinds %v",
			s.Name, s.Kind, kindsWhere(func(row *kindRow) bool { return row.free.has(knobCDF) }))
	}
	return nil
}

// FormatBuckets renders the Figs 14/15 per-size-bucket FCT slowdown tables
// (average / median / p95 / p99) and the §5.5 headline reductions from a
// sweep's results: one table set per (name, backend, k, load) group in order
// of first appearance, each scheme's flow records pooled across seeds —
// §5.5's methodology — with the schemes as columns in order of first
// appearance. A result that fails CheckBuckets, or that carries no flow
// records because the harness cache served it, is an error.
func FormatBuckets(results []*Result) (string, error) {
	type group struct {
		name, backend string
		k             int
		load          float64
	}
	var order []group
	byGroup := map[group][]*Result{}
	for _, r := range results {
		if err := CheckBuckets(r.Spec); err != nil {
			return "", err
		}
		if r.FCT == nil {
			return "", fmt.Errorf("scenario: %s/%s result %s carries no flow records (the result cache keeps only metrics)",
				r.Spec.Kind, r.Spec.Scheme, r.Hash)
		}
		g := group{r.Spec.Name, r.Spec.BackendName(), r.Spec.Topo.K, r.Spec.Load}
		if byGroup[g] == nil {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], r)
	}
	var b strings.Builder
	for _, g := range order {
		rs := byGroup[g]
		name := rs[0].Spec.Workload.CDF
		cdf, ok := workload.ByName(name)
		if !ok {
			return "", fmt.Errorf("scenario: no buckets for workload %q (have %v)", name, workload.Names())
		}
		merged := map[string]*metrics.FCTCollector{}
		var schemes []string
		for _, r := range rs {
			if merged[r.Spec.Scheme] == nil {
				merged[r.Spec.Scheme] = metrics.NewFCTCollector()
				schemes = append(schemes, r.Spec.Scheme)
			}
			merged[r.Spec.Scheme].Merge(r.FCT)
		}
		fmt.Fprintf(&b, "%s (%s) fat-tree k=%d (%d hosts), %s @ %s%% load, %d run(s)\n",
			g.name, g.backend, g.k, rs[0].Spec.Hosts(), name, percent(g.load), len(rs))
		for _, stat := range bucketStats {
			fmt.Fprintf(&b, "\n== %s FCT slowdown (%s) ==\n", stat.name, name)
			writePanel(&b, stat.of, cdf.Edges(), schemes, merged)
		}
		b.WriteString("\n")
		writeHeadlines(&b, name, merged)
		b.WriteString("\n")
	}
	return b.String(), nil
}

// writePanel writes one panel: a row per (previous edge, edge] size bucket,
// labelled with its edge, a column per scheme and the bucket's flow count
// under the first scheme.
func writePanel(b *strings.Builder, of func(*metrics.Dist) float64, edges []int64,
	schemes []string, merged map[string]*metrics.FCTCollector) {
	fmt.Fprintf(b, "%-8s", "size")
	for _, s := range schemes {
		fmt.Fprintf(b, "%12s", s)
	}
	fmt.Fprintf(b, "%8s\n", "n")
	lo := int64(0)
	for _, hi := range edges {
		fmt.Fprintf(b, "%-8s", sizeLabel(hi))
		for _, s := range schemes {
			fmt.Fprintf(b, "%12.2f", of(merged[s].SlowdownDist(lo, hi)))
		}
		fmt.Fprintf(b, "%8d\n", merged[schemes[0]].SlowdownDist(lo, hi).N())
		lo = hi
	}
}

// writeHeadlines writes the §5.5 headline reductions, FNCC vs HPCC and
// DCQCN where those ran: the relative reduction of the small-flow p95 and
// the large-flow median slowdown, positive when FNCC is better and 0 when
// the baseline has no flows in the range.
func writeHeadlines(b *strings.Builder, workloadName string, merged map[string]*metrics.FCTCollector) {
	fncc := merged[exp.SchemeFNCC]
	if fncc == nil {
		return
	}
	const small, large = int64(100_000), int64(1_000_000)
	for _, base := range []string{exp.SchemeHPCC, exp.SchemeDCQCN} {
		bl := merged[base]
		if bl == nil {
			continue
		}
		reduction := func(of func(*metrics.Dist) float64, lo, hi int64) float64 {
			x := of(bl.SlowdownDist(lo, hi))
			if x == 0 {
				return 0
			}
			return 1 - of(fncc.SlowdownDist(lo, hi))/x
		}
		if fncc.SlowdownDist(0, small).N() > 0 {
			fmt.Fprintf(b, "%s: flows<100KB p95 slowdown reduction vs %s: %.1f%%\n",
				workloadName, base, 100*reduction((*metrics.Dist).P95, 0, small))
		}
		// The large-flow headline needs flows strictly above 1MB (WebSearch
		// has them; FB_Hadoop tops out at exactly 1MB).
		if fncc.SlowdownDist(large, 1<<62).N() > 0 {
			fmt.Fprintf(b, "%s: flows>1MB median slowdown reduction vs %s: %.1f%%\n",
				workloadName, base, 100*reduction((*metrics.Dist).Median, large, 1<<62))
		}
	}
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

// percent writes a load as a percentage by moving the decimal point of its
// shortest decimal form, so distinct loads print distinct: 0.5 as 50, 0.12
// as 12, 0.125 as 12.5.
func percent(load float64) string {
	whole, frac, _ := strings.Cut(strconv.FormatFloat(load, 'f', -1, 64), ".")
	frac += "00"
	if whole = strings.TrimLeft(whole+frac[:2], "0"); whole == "" {
		whole = "0"
	}
	if frac = strings.TrimRight(frac[2:], "0"); frac != "" {
		whole += "." + frac
	}
	return whole
}
