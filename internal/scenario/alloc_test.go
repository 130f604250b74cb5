package scenario

import "testing"

// TestPacketRunAllocatesPerChunk: the repository benchmark's fct-websearch
// point (k=4, 2000 us) allocates per chunk, not per port, serial and on the
// sharded executor. Port rings and host send lists grow into their shard's
// chunks, and the FCT records are sized from the flow count, so the count no
// longer follows how deep each of the fabric's queues gets. When every ring
// doubled on its own the serial run cost 1,066 allocations and the sharded
// one 1,216, and about 410 and 640 while each run grew its pools, rings and
// send lists afresh. The runs share the test's own arena, as a sweep
// worker's points do, so the count is a run's on storage an earlier run grew
// — about 250 and 346 — under -race too. The sharded run's excess is per
// shard (five networks' worth of shard state, and the outbox and calendar of
// the barrier exchange), not per port.
func TestPacketRunAllocatesPerChunk(t *testing.T) {
	var a Arena
	for _, tc := range []struct {
		workers int
		max     float64
	}{{0, 300}, {2, 420}} {
		sp := Spec{Name: "fct-websearch", Kind: KindFCT, Scheme: "FNCC",
			Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: "websearch"},
			Load: 0.5, DurationUs: 2000, Seed: 1, Workers: tc.workers}
		n, err := sp.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := n.Run(WithArena(&a)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("workers %d: %v allocations per run", tc.workers, allocs)
		if allocs > tc.max {
			t.Errorf("workers %d: %v allocations per run, want at most %v", tc.workers, allocs, tc.max)
		}
	}
}
