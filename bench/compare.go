package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// compareFiles prints, per workload and end-to-end metric, the medians of
// the runs recorded in a and in b, their relative difference (base: a) and
// the bound. A pair is out of bounds when b is worse than a by more than
// the bound, and unresolved instead when either side's own quartile spread
// exceeds the bound (setup_s excepted: it follows the seed, so only its
// medians are compared). The exit code is 1 if any pair is out of bounds.
func compareFiles(a, b string) int {
	ra, err := readRecords(a)
	if err != nil {
		fatal("%v", err)
	}
	rb, err := readRecords(b)
	if err != nil {
		fatal("%v", err)
	}
	status := 0
	fmt.Printf("%-14s %-18s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "(b-a)/a", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := ra[w.name][d.Name], rb[w.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			diff := (sb.Median - sa.Median) / sa.Median
			worse := diff
			if d.Better == "higher" {
				worse = -diff
			}
			spread := max((sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median)
			verdict := "ok"
			switch {
			case spread > d.Bound && d.Name != "setup_s": // set-up follows the seed; only its medians are held
				verdict = "unresolved (spread exceeds bound)"
			case worse > d.Bound:
				verdict = "OUT OF BOUNDS"
				status = 1
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %+8.1f%% %6.1f%% %6.1f%%  %s (n=%d,%d)\n",
				w.name, d.Name, sa.Median, sb.Median, 100*diff, 100*spread, 100*d.Bound, verdict, sa.N, sb.N)
		}
	}
	return status
}

// readRecords groups the untraced runs of a -record file as
// workload -> metric -> one value per run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v)
		}
	}
	return out, sc.Err()
}
