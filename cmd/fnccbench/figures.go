package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
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

// cmdWorkload inspects and exports the trace-derived workloads: it prints the
// flow-size CDF at the paper's bucket edges, the analytic mean, and can
// emit a generated arrival trace as CSV for external tools.
func cmdWorkload(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	wl := fs.String("wl", "websearch", "workload: websearch | hadoop")
	file := fs.String("file", "", "load a custom CDF file (HPCC artifact format: 'bytes cum' lines)")
	export := fs.Bool("export", false, "print the distribution in CDF-file format")
	trace := fs.Bool("trace", false, "emit a generated arrival trace as CSV")
	hosts := fs.Int("hosts", 128, "host count for trace generation")
	ms := fs.Float64("ms", 1, "trace horizon, milliseconds")
	load := fs.Float64("load", 0.5, "trace load")
	seed := fs.Int64("seed", 1, "trace seed")
	fs.Parse(args)

	var cdf *workload.CDF
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		cdf, err = workload.ParseCDF(*file, f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		var ok bool
		cdf, ok = workload.ByName(*wl)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %v)", *wl, workload.Names())
		}
	}
	if *export {
		fmt.Fprint(w, workload.FormatCDF(cdf))
		return nil
	}

	if !*trace {
		fmt.Fprintf(w, "workload %s: mean %.0fB, min %dB, max %dB\n",
			cdf.Name(), cdf.MeanBytes(), cdf.MinBytes(), cdf.MaxBytes())
		fmt.Fprintln(w, "quantile  size_bytes")
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
			fmt.Fprintf(w, "%8.2f  %10d\n", q, cdf.Quantile(q))
		}
		return nil
	}

	horizon := sim.FromSeconds(*ms / 1000)
	flows, err := workload.Generate(workload.GenConfig{
		Hosts:     *hosts,
		AccessBps: 100e9,
		Load:      *load,
		CDF:       cdf,
		Horizon:   horizon,
		Seed:      *seed,
		FirstID:   1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s trace: %d flows, offered load %.3f\n",
		cdf.Name(), len(flows), workload.OfferedLoad(flows, *hosts, 100e9, horizon))
	fmt.Fprintln(w, "id,src,dst,bytes,start_us")
	for _, f := range flows {
		fmt.Fprintf(w, "%d,%d,%d,%d,%.3f\n", f.ID, f.SrcHost, f.DstHost, f.SizeBytes, f.Start.Micros())
	}
	return nil
}
