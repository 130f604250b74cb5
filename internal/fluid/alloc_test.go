package fluid

import (
	"testing"

	"repro/internal/sim"
)

// TestRunAllocsFlatInFlowCount: a run of 8k flows costs at most a few tens of
// allocations more than a run of 1k — the storage chunks, and the slices that
// double (flow list, active set, heap, FCT records) — however many flows
// share a link. Every flow starts at once, so a link's occupant list holds
// up to 8x more flows in the larger run; before the lists were carved from
// one arena in prepare, each of the fabric's links regrew its list by
// doubling, which is three more allocations per link here.
func TestRunAllocsFlatInFlowCount(t *testing.T) {
	fb, err := NewFatTree(DefaultConfig(), FatTreeOpts{K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(2, func() {
			s := NewSim(fb, Instant())
			for i := 0; i < n; i++ {
				src, dst := i%fb.Hosts, (i*7+3)%fb.Hosts
				if src == dst {
					dst = (dst + 1) % fb.Hosts
				}
				if _, err := s.AddFlow(uint64(i+1), src, dst, int64(1000+i%97*100), 0); err != nil {
					t.Fatal(err)
				}
			}
			if res := s.Run(sim.Second); res.Completed != n {
				t.Fatalf("%d of %d flows completed", res.Completed, n)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	t.Logf("allocs per run: %v for 1k flows, %v for 8k", small, large)
	if large-small > 48 {
		t.Errorf("allocations grow with the flow count: %v for 1k flows, %v for 8k", small, large)
	}
}

// TestRunGrowsNothingAfterPrepare: once the flows are added, a run's
// allocations are a constant — prepare sizes the occupant lists, the active
// set, the finish heap, the worklist and the solvers' scratch, and Run the
// FCT records, each once — so 8k flows cost exactly what 1k do. Before
// prepare sized them, each of those slices grew by doubling as the active
// set did.
func TestRunGrowsNothingAfterPrepare(t *testing.T) {
	fb, err := NewFatTree(DefaultConfig(), FatTreeOpts{K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	allocs := func(n int) float64 {
		// AllocsPerRun makes one warm-up call before the measured ones.
		sims := make([]*Sim, runs+1)
		for r := range sims {
			sims[r] = NewSim(fb, Instant())
			for i := 0; i < n; i++ {
				src, dst := i%fb.Hosts, (i*7+3)%fb.Hosts
				if src == dst {
					dst = (dst + 1) % fb.Hosts
				}
				if _, err := sims[r].AddFlow(uint64(i+1), src, dst, int64(1000+i%97*100), sim.Time(i%50)*sim.Microsecond); err != nil {
					t.Fatal(err)
				}
			}
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			s := sims[next]
			next++
			if res := s.Run(sim.Second); res.Completed != n {
				t.Fatalf("%d of %d flows completed", res.Completed, n)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	t.Logf("allocs per run after the flows are added: %v for 1k flows, %v for 8k", small, large)
	if small != large || large > 12 {
		t.Errorf("a run allocates %v with 1k flows and %v with 8k; want one small constant", small, large)
	}
}
