// Fat-tree FCT comparison: a small (k=4, 16-host) version of the paper's
// §5.5 experiment. An FB_Hadoop workload at 50% load runs under each
// scheme; we print the per-size-bucket FCT slowdown tables and the headline
// reductions of FNCC over the baselines.
//
// Run: go run ./examples/fattree            (quick: k=4, 1ms of arrivals)
// Run: go run ./examples/fattree -k 8 -ms 5 (closer to paper scale)
package main

import (
	"flag"
	"fmt"
	"time"

	fncc "repro"
)

func main() {
	k := flag.Int("k", 4, "fat-tree arity (paper: 8)")
	ms := flag.Int64("ms", 1, "arrival horizon in milliseconds")
	load := flag.Float64("load", 0.5, "average access-link load")
	wl := flag.String("wl", "hadoop", "workload: hadoop | websearch")
	flag.Parse()

	fmt.Printf("fat-tree k=%d (%d hosts), %s @ %.0f%% load, %dms of arrivals\n",
		*k, (*k)*(*k)*(*k)/4, *wl, 100**load, *ms)

	sweep := fncc.Sweep{
		Base: fncc.Scenario{Kind: "fct", Topo: fncc.ScenarioTopo{K: *k},
			Workload: fncc.ScenarioWorkload{CDF: *wl}, Load: *load, DurationUs: *ms * 1000},
		Grid: fncc.SweepGrid{
			Schemes: []string{fncc.SchemeDCQCN, fncc.SchemeHPCC, fncc.SchemeFNCC},
			Seeds:   []int64{1, 2},
		},
	}
	specs, err := sweep.Expand()
	if err != nil {
		panic(err)
	}
	start := time.Now()
	results, err := (&fncc.SweepRunner{}).RunAll(specs)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		m := r.Metrics
		fmt.Printf("  %-6s seed %d: %.0f/%.0f flows completed, %.0f pauses, %.0f drops\n",
			r.Spec.Scheme, r.Spec.Seed, m["completed"], m["generated"], m["pause_frames"], m["drops"])
	}
	fmt.Printf("  (simulated in %.1fs wall time)\n", time.Since(start).Seconds())

	merged, schemes, err := fncc.PoolFCT(results)
	if err != nil {
		panic(err)
	}
	tables, err := fncc.FormatFCTTables(*wl, merged, schemes)
	if err != nil {
		panic(err)
	}
	fmt.Println(tables)
	fmt.Println(fncc.FormatHeadlines(*wl, merged))
}
