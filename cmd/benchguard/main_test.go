package main

import (
	"io"
	"strings"
	"testing"
)

// canned is go test -bench -benchmem output: an allocs column, a ratio
// column, and a ratio behind another reported metric.
const canned = `goos: linux
pkg: repro/internal/exp
BenchmarkMicroSteadyState-2    	     200	   3350964 ns/op	   32325 B/op	      81 allocs/op
BenchmarkTelemetryOverhead-2   	     200	   8021051 ns/op	         1.102 ratio	  100291 B/op	     292 allocs/op
BenchmarkPacketParallelSpeedupW2-2   	      10	1111771674 ns/op	         0.8506 parallel_efficiency	         1.260 ratio
PASS
`

func TestBounds(t *testing.T) {
	for _, c := range []struct {
		flag, bound, fails string // fails: "" passes, else a piece of the error
	}{
		{"-max", "BenchmarkMicroSteadyState=81", ""},
		{"-max", "BenchmarkMicroSteadyState=80", "81 allocs/op over its budget"},
		{"-ratio", "BenchmarkTelemetryOverhead<=1.11", ""},
		{"-ratio", "BenchmarkTelemetryOverhead<=1.05", "ratio 1.102, want <= 1.05"},
		{"-ratio", "BenchmarkPacketParallelSpeedupW2>=1.15", ""},
		{"-ratio", "BenchmarkPacketParallelSpeedupW2>=1.3", "ratio 1.26, want >= 1.3"},
		{"-ratio", "BenchmarkMicroSteadyState<=2", "reports no ratio column"},
		{"-max", "BenchmarkGone=0", "BenchmarkGone missing from input"},
		{"-ratio", "BenchmarkGone>=1", "BenchmarkGone missing from input"},
	} {
		err := run([]string{c.flag, c.bound}, strings.NewReader(canned), io.Discard)
		if c.fails == "" && err != nil || c.fails != "" && (err == nil || !strings.Contains(err.Error(), c.fails)) {
			t.Errorf("%s %s: err %v, want %q", c.flag, c.bound, err, c.fails)
		}
	}
}

// TestSeenTwiceIsRefused: a second line for one benchmark (go test -count 2)
// is refused, not filtered down to its fastest run.
func TestSeenTwiceIsRefused(t *testing.T) {
	twice := canned + "BenchmarkMicroSteadyState-2  200  3000000 ns/op  32325 B/op  81 allocs/op\n"
	err := run(nil, strings.NewReader(twice), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkMicroSteadyState appears twice") {
		t.Fatalf("err %v, want a refusal naming the benchmark", err)
	}
}
