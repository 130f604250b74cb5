// Command benchguard turns `go test -bench -benchmem` output into a
// machine-readable perf snapshot and enforces allocation budgets, so CI
// fails when a change regresses the allocation-free hot paths.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | tee bench.txt
//	go run ./cmd/benchguard -in bench.txt -out BENCH_2.json \
//	    -max BenchmarkEngineScheduleFire=0 -max BenchmarkOneHopForward=0
//
// Each -max NAME=N asserts the named benchmark reports at most N allocs/op;
// a named benchmark missing from the input is also an error (a silently
// skipped guard is a disabled guard).
//
// A benchmark appearing more than once (go test -count N) keeps its
// fastest run — best-of-N is the standard scheduler-noise filter, and it
// is what makes tight ratio gates usable on shared CI machines.
//
// Derived metrics: -ratio NAME=NUM/DEN records NUM's ns/op divided by DEN's
// (e.g. the packet-vs-fluid wall-clock speedup of the same experiment), and
// -min NAME=V fails the run when the named ratio falls below V — the guard
// that keeps "the fluid backend is two orders of magnitude faster" a tested
// property instead of a README claim. -maxratio NAME=V is the other
// direction: fail when the ratio exceeds V, which is how the telemetry
// overhead bound ("probes cost under 5%") is enforced.
//
// The JSON output groups parsed benchmarks (keyed by name, CPU-count suffix
// stripped) with the computed ratios, suitable for committing as the
// perf-trajectory point of a PR:
//
//	{"benchmarks": {"BenchmarkX": {...}}, "ratios": {"fluid_speedup": 123.4}}
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Point is one benchmark's parsed result.
type Point struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchLine matches "BenchmarkName-8  123  45.6 ns/op  7 B/op  8 allocs/op";
// the -benchmem columns are optional so plain -bench output still parses,
// and b.ReportMetric columns may stand between ns/op and B/op.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:.*?\s(\d+) B/op\s+(\d+) allocs/op)?`)

type maxFlags map[string]int64

func (m maxFlags) String() string { return fmt.Sprint(map[string]int64(m)) }

func (m maxFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want NAME=ALLOCS, got %q", s)
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("bad allocs bound %q: %w", val, err)
	}
	m[name] = n
	return nil
}

func parse(r io.Reader) (map[string]Point, error) {
	out := map[string]Point{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		match := benchLine.FindStringSubmatch(sc.Text())
		if match == nil {
			continue
		}
		p := Point{}
		p.Iterations, _ = strconv.ParseInt(match[2], 10, 64)
		p.NsPerOp, _ = strconv.ParseFloat(match[3], 64)
		if match[4] != "" {
			p.BytesPerOp, _ = strconv.ParseInt(match[4], 10, 64)
			p.AllocsPerOp, _ = strconv.ParseInt(match[5], 10, 64)
		}
		if prev, ok := out[match[1]]; ok && prev.NsPerOp <= p.NsPerOp {
			continue // -count N repeats: keep the fastest run
		}
		out[match[1]] = p
	}
	return out, sc.Err()
}

// ratioFlags collects -ratio NAME=NUM/DEN definitions.
type ratioFlags map[string][2]string

func (r ratioFlags) String() string { return fmt.Sprint(map[string][2]string(r)) }

func (r ratioFlags) Set(s string) error {
	name, expr, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want NAME=NUM/DEN, got %q", s)
	}
	num, den, ok := strings.Cut(expr, "/")
	if !ok || num == "" || den == "" {
		return fmt.Errorf("want NAME=NUM/DEN, got %q", s)
	}
	r[name] = [2]string{num, den}
	return nil
}

type minFlags map[string]float64

func (m minFlags) String() string { return fmt.Sprint(map[string]float64(m)) }

func (m minFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want NAME=MIN, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad ratio bound %q: %w", val, err)
	}
	m[name] = v
	return nil
}

// snapshot is the JSON output: parsed benchmarks plus derived ratios.
type snapshot struct {
	Benchmarks map[string]Point   `json:"benchmarks"`
	Ratios     map[string]float64 `json:"ratios,omitempty"`
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "JSON snapshot to write (default: none)")
	limits := maxFlags{}
	flag.Var(limits, "max", "NAME=ALLOCS allocs/op budget; repeatable")
	ratios := ratioFlags{}
	flag.Var(ratios, "ratio", "NAME=NUM/DEN ns/op ratio to derive; repeatable")
	mins := minFlags{}
	flag.Var(mins, "min", "NAME=V minimum for a derived ratio; repeatable")
	maxRatios := minFlags{}
	flag.Var(maxRatios, "maxratio", "NAME=V maximum for a derived ratio; repeatable")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	points, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if len(points) == 0 {
		fatal(fmt.Errorf("no benchmark lines found"))
	}

	derived := map[string]float64{}
	rnames := make([]string, 0, len(ratios))
	for name := range ratios {
		rnames = append(rnames, name)
	}
	sort.Strings(rnames)
	failed := false
	for _, name := range rnames {
		nd := ratios[name]
		num, okN := points[nd[0]]
		den, okD := points[nd[1]]
		switch {
		case !okN || !okD:
			fmt.Fprintf(os.Stderr, "benchguard: ratio %s: benchmark missing from input (%s, %s)\n",
				name, nd[0], nd[1])
			failed = true
			continue
		case den.NsPerOp == 0:
			fmt.Fprintf(os.Stderr, "benchguard: ratio %s: zero denominator %s\n", name, nd[1])
			failed = true
			continue
		}
		derived[name] = num.NsPerOp / den.NsPerOp
	}
	for name := range mins {
		if _, ok := ratios[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchguard: -min %s has no matching -ratio\n", name)
			failed = true
		}
	}
	for name := range maxRatios {
		if _, ok := ratios[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchguard: -maxratio %s has no matching -ratio\n", name)
			failed = true
		}
	}
	for _, name := range rnames {
		v, ok := derived[name]
		if !ok {
			continue
		}
		status := ""
		if minV, bounded := mins[name]; bounded {
			status = "ok"
			if v < minV {
				status = "REGRESSION"
				failed = true
			}
			status = fmt.Sprintf("(min %g) %s", minV, status)
		}
		if maxV, bounded := maxRatios[name]; bounded {
			s := "ok"
			if v > maxV {
				s = "REGRESSION"
				failed = true
			}
			status = strings.TrimSpace(status + fmt.Sprintf(" (max %g) %s", maxV, s))
		}
		fmt.Printf("%-40s %10.1fx %s\n", "ratio:"+name, v, status)
	}

	if *out != "" {
		data, err := json.MarshalIndent(snapshot{Benchmarks: points, Ratios: derived}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	names := make([]string, 0, len(limits))
	for name := range limits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		budget := limits[name]
		p, ok := points[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from input (guard cannot run)\n", name)
			failed = true
			continue
		}
		status := "ok"
		if p.AllocsPerOp > budget {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-40s %8.1f ns/op %6d allocs/op (budget %d) %s\n",
			name, p.NsPerOp, p.AllocsPerOp, budget, status)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
