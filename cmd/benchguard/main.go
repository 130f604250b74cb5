// Command benchguard turns `go test -bench -benchmem` output into a
// machine-readable perf snapshot and enforces its budgets, so CI fails when
// a change regresses an allocation-free hot path or a paired ratio.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | tee bench.txt
//	go run ./cmd/benchguard -in bench.txt -out BENCH_2.json \
//	    -max BenchmarkEngineScheduleFire=0 -ratio 'BenchmarkTelemetryOverhead<=1.05'
//
// Each -max NAME=N asserts the named benchmark reports at most N allocs/op.
// Each -ratio NAME<=V or NAME>=V bounds the ratio column the named paired
// benchmark reports (internal/benchpair): the median of its per-pair ratios,
// both sides measured in one process, so no arithmetic across benchmarks is
// done here. A bounded benchmark missing from the input is an error (a
// silently skipped guard is a disabled guard), and so is a benchmark that
// appears twice: a line is one measurement, not a sample to pick from.
//
// The JSON output keys the parsed benchmarks by name, CPU-count suffix
// stripped, suitable for committing as the perf-trajectory point of a PR:
//
//	{"benchmarks": {"BenchmarkX": {...}}}
package main

import (
	"bufio"
	"encoding/json"
	"errors"
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
	Ratio       float64 `json:"ratio,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchLine matches "BenchmarkName-8  123  45.6 ns/op  1.02 ratio  7 B/op
// 8 allocs/op"; the ratio and -benchmem columns are optional, and other
// b.ReportMetric columns may stand between them.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:.*?\s([\d.]+) ratio\b)?(?:.*?\s(\d+) B/op\s+(\d+) allocs/op)?`)

// bound is one -ratio bound: op is "<=" or ">=".
type bound struct {
	op string
	v  float64
}

func parse(r io.Reader) (map[string]Point, error) {
	out := map[string]Point{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		match := benchLine.FindStringSubmatch(sc.Text())
		if match == nil {
			continue
		}
		if _, seen := out[match[1]]; seen {
			return nil, fmt.Errorf("%s appears twice in the input: run each benchmark once", match[1])
		}
		p := Point{}
		p.Iterations, _ = strconv.ParseInt(match[2], 10, 64)
		p.NsPerOp, _ = strconv.ParseFloat(match[3], 64)
		p.Ratio, _ = strconv.ParseFloat(match[4], 64)
		if match[5] != "" {
			p.BytesPerOp, _ = strconv.ParseInt(match[5], 10, 64)
			p.AllocsPerOp, _ = strconv.ParseInt(match[6], 10, 64)
		}
		out[match[1]] = p
	}
	return out, sc.Err()
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

// run reads the bench output (-in, or stdin), writes the snapshot (-out)
// and one line per bound to stdout, and returns an error naming every bound
// that failed.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ExitOnError)
	in := fs.String("in", "", "bench output file (default stdin)")
	out := fs.String("out", "", "JSON snapshot to write (default: none)")
	limits := map[string]int64{}
	fs.Func("max", "NAME=ALLOCS allocs/op budget; repeatable", func(s string) error {
		name, val, ok := strings.Cut(s, "=")
		n, err := strconv.ParseInt(val, 10, 64)
		if !ok || err != nil {
			return fmt.Errorf("want NAME=ALLOCS, got %q", s)
		}
		limits[name] = n
		return nil
	})
	ratios := map[string]bound{}
	fs.Func("ratio", "NAME<=V or NAME>=V bound on a reported ratio; repeatable", func(s string) error {
		for _, op := range []string{"<=", ">="} {
			if name, val, ok := strings.Cut(s, op); ok {
				v, err := strconv.ParseFloat(val, 64)
				ratios[name] = bound{op, v}
				return err
			}
		}
		return fmt.Errorf("want NAME<=V or NAME>=V, got %q", s)
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	src := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	points, err := parse(src)
	if err != nil {
		return err
	}
	if len(points) == 0 {
		return errors.New("no benchmark lines found")
	}
	if *out != "" {
		data, err := json.MarshalIndent(struct {
			Benchmarks map[string]Point `json:"benchmarks"`
		}{points}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	var failed []string
	for _, name := range sortedKeys(limits) {
		p, ok := points[name]
		if !ok {
			failed = append(failed, name+" missing from input (guard cannot run)")
			continue
		}
		status := "ok"
		if p.AllocsPerOp > limits[name] {
			status = "REGRESSION"
			failed = append(failed, fmt.Sprintf("%s: %d allocs/op over its budget", name, p.AllocsPerOp))
		}
		fmt.Fprintf(stdout, "%-40s %8.1f ns/op %6d allocs/op (budget %d) %s\n",
			name, p.NsPerOp, p.AllocsPerOp, limits[name], status)
	}
	for _, name := range sortedKeys(ratios) {
		b := ratios[name]
		p, ok := points[name]
		switch {
		case !ok:
			failed = append(failed, name+" missing from input (guard cannot run)")
			continue
		case p.Ratio == 0:
			failed = append(failed, name+" reports no ratio column")
			continue
		}
		status := "ok"
		if b.op == "<=" && p.Ratio > b.v || b.op == ">=" && p.Ratio < b.v {
			status = "REGRESSION"
			failed = append(failed, fmt.Sprintf("%s: ratio %g, want %s %g", name, p.Ratio, b.op, b.v))
		}
		fmt.Fprintf(stdout, "%-40s %10.4g ratio (%s %g) %s\n", name, p.Ratio, b.op, b.v, status)
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
