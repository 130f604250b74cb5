// Incast: the scenario LHCS was designed for. The registry's "incast" point
// puts sixteen senders at the receiver-side switch (Fig 11b's last-hop
// geometry), each bursting 2 MB to one receiver at once — classic
// partition/aggregate incast where every byte of congestion lands on the
// last hop. We run FNCC with and without the Last-Hop Congestion Speedup
// and compare the last-hop queue peak, PFC pauses, the worst fairness while
// all senders are active, and when the last flow finished.
//
// Run: go run ./examples/incast
package main

import (
	"fmt"

	fncc "repro"
)

func main() {
	sp, err := fncc.LookupScenario("incast")
	if err != nil {
		panic(err)
	}
	n := sp.Normalized() // the registry leaves defaults unset; this fills them in
	fmt.Printf("%d-to-1 incast at the last hop, %d MB each, %d Gbps fabric\n\n",
		n.Workload.Fanout, n.Workload.FlowBytes>>20, n.Topo.RateGbps)
	for _, name := range []string{fncc.SchemeFNCCNoLHCS, fncc.SchemeFNCC} {
		sp.Scheme = name
		r, err := fncc.RunScenario(sp)
		if err != nil {
			panic(err)
		}
		m := r.Metrics
		fmt.Printf("%-12s  last-hop queue peak %7.1fKB  pauses %2.0f  min Jain %.3f  all done at %.0fus\n",
			name, m["queue_peak_bytes"]/1000, m["pause_frames"], m["jain_min"], m["all_done_us"])
	}
	fmt.Println("\nLHCS jumps each sender straight to B*RTT*beta/N on its first")
	fmt.Println("congested ACK, cutting the incast queue peak; without it the")
	fmt.Println("window decay needs several round trips to shed the same backlog.")
}
