package core

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestAdmissionAllocsFlatInFlowCount: admitting and running 8k FNCC flows on
// the packet engine costs at most a few tens of allocations more than 1k
// (about 90 here: the storage chunks the network carves flows, senders and
// INT histories from, the id set's hash tables, and the slices that double —
// flow table, FCT records, event storage). Each flow used to cost about six
// objects by its first ACK — the Flow, the Sender, its LHCS closure, the HPCC
// and HPCC's two INT slices — which is some 40k more for the larger run.
// The flows are short and start 2 us apart, so concurrency — and with it the
// packet pool and the queues — is the same at both sizes.
func TestAdmissionAllocsFlatInFlowCount(t *testing.T) {
	scheme := NewScheme(DefaultConfig())
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(2, func() {
			ft, err := topo.BuildFatTree(netsim.DefaultConfig(), scheme,
				topo.FatTreeOpts{K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond})
			if err != nil {
				t.Fatal(err)
			}
			hosts := len(ft.Hosts)
			for i := 0; i < n; i++ {
				src, dst := i%hosts, (i*7+3)%hosts
				if src == dst {
					dst = (dst + 1) % hosts
				}
				ft.AddFlow(uint64(i+1), src, dst, 3000, sim.Time(i)*2*sim.Microsecond)
			}
			if !ft.Net.RunToCompletion(sim.Second) {
				t.Fatalf("%d flows did not complete", n)
			}
			ft.Net.ReleaseEngines()
		})
	}
	small, large := allocs(1000), allocs(8000)
	t.Logf("allocs per run: %v for 1k flows, %v for 8k", small, large)
	if large-small > 160 {
		t.Errorf("allocations grow with the flow count: %v for 1k flows, %v for 8k", small, large)
	}
}
