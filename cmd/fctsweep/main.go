// fctsweep regenerates the paper's Figs 14 and 15: FCT slowdown tables
// (average / median / p95 / p99 per flow-size bucket) on a k-ary fat-tree
// under WebSearch or FB_Hadoop traffic, repeated over seeds and averaged —
// §5.5's methodology. Paper scale is -k 8 -ms 10+ -seeds 5; defaults are
// sized for a laptop run.
//
// Example:
//
//	fctsweep -wl websearch -k 8 -ms 5 -seeds 3 -load 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
)

func main() {
	wl := flag.String("wl", "websearch", "workload: websearch | hadoop")
	k := flag.Int("k", 8, "fat-tree arity (paper: 8 -> 128 hosts)")
	ms := flag.Float64("ms", 2, "arrival horizon, milliseconds")
	load := flag.Float64("load", 0.5, "average access-link load")
	seeds := flag.Int("seeds", 2, "number of repetitions (paper: 5)")
	schemes := flag.String("schemes", "DCQCN,HPCC,FNCC", "comma-separated schemes")
	flag.Parse()

	names := strings.FieldsFunc(*schemes, func(r rune) bool { return r == ',' })

	base := exp.DefaultFCTConfig(exp.SchemeFNCC, *wl)
	base.K = *k
	base.Horizon = sim.FromSeconds(*ms / 1000)
	base.Load = *load

	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}

	fmt.Printf("fat-tree k=%d (%d hosts), %s @ %.0f%% load, %.1fms arrivals, %d seeds\n",
		*k, (*k)*(*k)*(*k)/4, *wl, 100**load, *ms, *seeds)
	t0 := time.Now()
	merged, runs, err := exp.RunFCTSweep(base, names, seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fctsweep:", err)
		os.Exit(1)
	}
	for _, r := range runs {
		fmt.Printf("  %-6s seed %d: %6d/%6d flows done, offered load %.2f, %d pauses, %d drops\n",
			r.Scheme, r.Seed, r.Completed, r.Generated, r.OfferedLoad, r.PauseFrames, r.Drops)
	}
	fmt.Printf("  wall time %.1fs\n", time.Since(t0).Seconds())

	tables, err := exp.FormatFCTTables(*wl, merged, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fctsweep:", err)
		os.Exit(1)
	}
	fmt.Println(tables)
	fmt.Println(exp.FormatHeadlines(*wl, merged))
}
