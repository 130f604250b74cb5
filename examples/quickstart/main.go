// Quickstart: the paper's §5.1 micro-benchmark from the scenario registry.
// Two elephant flows share a 100 Gbps dumbbell; flow1 joins at 300 us. We
// run the registry's "micro" point under each compared scheme and print the
// bottleneck queue peak, the utilization after the join, when flow0 first
// slowed down, and the PFC pause frames.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	fncc "repro"
)

func main() {
	sp, err := fncc.LookupScenario("micro")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-8s %12s %10s %14s %8s\n", "scheme", "queue peak", "util", "1st slowdown", "pauses")
	for _, name := range fncc.AllSchemes() {
		sp.Scheme = name
		r, err := fncc.RunScenario(sp)
		if err != nil {
			panic(err)
		}
		m := r.Metrics
		slow := "never"
		if us := m["first_slowdown_us"]; us >= 0 {
			slow = fmt.Sprintf("%.0fus", us)
		}
		fmt.Printf("%-8s %10.1fKB %9.1f%% %14s %8.0f\n",
			name, m["queue_peak_bytes"]/1000, 100*m["mean_util"], slow, m["pause_frames"])
	}
	fmt.Println("\nflow1 joins at 300us; FNCC's sub-RTT notification slows flow0 first.")
	fmt.Println("For the queue and rate time series: fnccbench sweep micro -telemetry <dir>")
}
