package scenario

import "testing"

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestPacketRunAllocatesPerChunk: the repository benchmark's fct-websearch
// point (k=4, 2000 us) allocates per chunk, not per port, serial and on the
// sharded executor. Port rings and host send lists grow into their shard's
// chunks, and the FCT records are sized from the flow count, so the count no
// longer follows how deep each of the fabric's queues gets. When every ring
// doubled on its own the serial run cost 1,066 allocations and the sharded
// one 1,216; they read about 410 and 640 now. The sharded run's excess is
// per shard (five engines, pools and chunk series, and the outbox and
// calendar of the barrier exchange), not per port: with one outbox per
// destination shard as well it read about 665.
func TestPacketRunAllocatesPerChunk(t *testing.T) {
	if raceEnabled {
		// sync.Pool drops Puts at random under -race, so an engine may grow
		// fresh storage (~180 allocations) and the count says nothing.
		t.Skip("allocation counts are not checked under -race")
	}
	for _, tc := range []struct {
		workers int
		max     float64
	}{{0, 450}, {2, 700}} {
		sp := Spec{Name: "fct-websearch", Kind: KindFCT, Scheme: "FNCC",
			Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: "websearch"},
			Load: 0.5, DurationUs: 2000, Seed: 1, Workers: tc.workers}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := Run(sp); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("workers %d: %v allocations per run", tc.workers, allocs)
		if allocs > tc.max {
			t.Errorf("workers %d: %v allocations per run, want at most %v", tc.workers, allocs, tc.max)
		}
	}
}
