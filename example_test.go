package fncc_test

import (
	"fmt"

	fncc "repro"
)

// Example_microBenchmark reproduces the paper's §5.1 setup in a few lines:
// two elephants share a dumbbell, the second joins at 300 us, and FNCC's
// sub-RTT notification caps the bottleneck queue below one PFC threshold.
func Example_microBenchmark() {
	sp, err := fncc.LookupScenario("micro")
	if err != nil {
		panic(err)
	}
	sp.Scheme = fncc.SchemeFNCC
	r, err := fncc.RunScenario(sp)
	if err != nil {
		panic(err)
	}
	fmt.Println("peak below PFC threshold:", r.Metrics["queue_peak_bytes"] < 500<<10)
	fmt.Println("pause frames:", r.Metrics["pause_frames"])
	// Output:
	// peak below PFC threshold: true
	// pause frames: 0
}

// Example_schemeComparison runs the same scenario under every scheme the
// paper evaluates and prints who reacted to congestion first.
func Example_schemeComparison() {
	sp, err := fncc.LookupScenario("micro")
	if err != nil {
		panic(err)
	}
	fastest, at := "", 0.0
	for _, name := range fncc.AllSchemes() {
		sp.Scheme = name
		r, err := fncc.RunScenario(sp)
		if err != nil {
			panic(err)
		}
		if us := r.Metrics["first_slowdown_us"]; us >= 0 && (fastest == "" || us < at) {
			fastest, at = name, us
		}
	}
	fmt.Println("first to react:", fastest)
	// Output:
	// first to react: FNCC
}

// Example_workloads samples the paper's trace-derived distributions.
func Example_workloads() {
	ws, hd := fncc.WebSearch(), fncc.FBHadoop()
	fmt.Println("WebSearch mean > 1MB:", ws.MeanBytes() > 1<<20)
	fmt.Println("Hadoop median fits one MTU:", hd.Quantile(0.5) <= 1518)
	// Output:
	// WebSearch mean > 1MB: true
	// Hadoop median fits one MTU: true
}
