package core

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestAdmissionAllocsFlatInFlowCount: admitting and running 8k FNCC flows on
// the packet engine costs at most a few tens of allocations more than 1k
// (about 85 here: the storage chunks the network carves flows, senders and
// INT histories from, the id set's hash tables, and the slices that double —
// flow table, event storage; the FCT records are sized once). Each flow used to cost about six
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

// TestRunAllocatesPerChunkNotPerFrame: one flow on a k=4 fat-tree, at 1 MB
// and at 32 MB, under FNCC (which stamps ACKs) and HPCC (which stamps data
// and copies the records into ACKs). The links are 50 us long, so the pipe
// holds the whole 1 MB flow and about 5k frames of the 32 MB one, and the
// pool has to make that many. When every frame the pool made and every INT
// stack it stamped was its own heap object, each extra frame cost about 1.7
// allocations (7k to 9k more for the larger run). Frames and stacks now come
// from the pool's 4 KB chunks — 31 frames, 20 five-record stacks — so an
// extra frame costs 1/31 + 1/20 of an allocation, plus the port rings' 4 KB
// chunks and the free list doubling, and must cost under 0.15.
func TestRunAllocatesPerChunkNotPerFrame(t *testing.T) {
	for _, scheme := range []netsim.Scheme{NewScheme(DefaultConfig()), cc.NewHPCCScheme(cc.DefaultHPCCConfig())} {
		run := func(size int64) (allocs float64, made uint64) {
			allocs = testing.AllocsPerRun(2, func() {
				ft, err := topo.BuildFatTree(netsim.DefaultConfig(), scheme,
					topo.FatTreeOpts{K: 4, RateBps: 100e9, Delay: 50 * sim.Microsecond})
				if err != nil {
					t.Fatal(err)
				}
				ft.AddFlow(1, 0, len(ft.Hosts)-1, size, 0)
				if !ft.Net.RunToCompletion(sim.Second) {
					t.Fatalf("a %d-byte flow did not complete", size)
				}
				made = ft.Net.TotalPoolStats().News
				ft.Net.ReleaseEngines()
			})
			return allocs, made
		}
		small, smallMade := run(1 << 20)
		large, largeMade := run(32 << 20)
		t.Logf("%s: %v allocations and %d frames made for 1 MB, %v and %d for 32 MB",
			scheme.Name, small, smallMade, large, largeMade)
		if largeMade < 4*smallMade {
			t.Fatalf("%s: the 32 MB run made %d frames, the 1 MB run %d: the pipe no longer sets the frame count",
				scheme.Name, largeMade, smallMade)
		}
		if perFrame := (large - small) / float64(largeMade-smallMade); perFrame > 0.15 {
			t.Errorf("%s: %.2f allocations per extra frame (%v for 1 MB, %v for 32 MB)", scheme.Name, perFrame, small, large)
		}
	}
}
