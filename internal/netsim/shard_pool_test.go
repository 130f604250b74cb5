package netsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// shardedPair builds h0 <-> h1 with each host in its own shard, so every data
// frame and ACK crosses the partition boundary.
func shardedPair(t *testing.T, workers int) (*Network, *Host, *Host) {
	t.Helper()
	return shardedPairWith(t, fixedScheme(gbps100), workers)
}

func shardedPairWith(t *testing.T, sch Scheme, workers int) (*Network, *Host, *Host) {
	t.Helper()
	return shardedPairOn(t, new(Storage), sch, workers)
}

// shardedPairOn is shardedPairWith on st.
func shardedPairOn(t *testing.T, st *Storage, sch Scheme, workers int) (*Network, *Host, *Host) {
	t.Helper()
	n, err := NewOn(st, DefaultConfig(), sch)
	if err != nil {
		t.Fatal(err)
	}
	n.ConfigureSharding(2, workers)
	n.BuildShard(0)
	h0 := n.NewHost()
	n.BuildShard(1)
	h1 := n.NewHost()
	Connect(h0.Port(), h1.Port(), gbps100, prop)
	return n, h0, h1
}

// TestShardPoolsIsolated runs a sharded transfer and checks the memory
// discipline the parallel executor depends on: every shard recycles frames
// through its own pool (traffic on both), and Network.Pool is shard 0's, not
// a spare one beside them.
func TestShardPoolsIsolated(t *testing.T) {
	n, h0, h1 := shardedPair(t, 2)
	f := n.AddFlow(1, h0, h1, 50_000, 0)
	n.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}

	shards := n.Shards()
	if len(shards) != 2 {
		t.Fatalf("Shards() = %d, want 2", len(shards))
	}
	if n.Pool != shards[0].Pool() {
		t.Fatal("Network.Pool is not shard 0's pool")
	}
	for _, sh := range shards {
		st := sh.Pool().Stats()
		// Shard 0's host builds data frames, shard 1's host builds ACKs —
		// both sides must be getting and releasing frames locally.
		if st.Gets == 0 {
			t.Fatalf("shard %d pool idle: %+v", sh.Index(), st)
		}
		if st.Puts == 0 {
			t.Fatalf("shard %d never released a frame: %+v", sh.Index(), st)
		}
	}
}

// TestTotalPoolStatsAggregates pins TotalPoolStats as the exact per-shard sum
// and checks the fabric-wide hit rate is computed over the summed counters.
func TestTotalPoolStatsAggregates(t *testing.T) {
	n, h0, h1 := shardedPair(t, 2)
	f := n.AddFlow(1, h0, h1, 50_000, 0)
	n.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}

	var want packet.PoolStats
	for _, sh := range n.Shards() {
		s := sh.Pool().Stats()
		want.Gets += s.Gets
		want.News += s.News
		want.Puts += s.Puts
	}
	got := n.TotalPoolStats()
	if got != want {
		t.Fatalf("TotalPoolStats = %+v, want per-shard sum %+v", got, want)
	}
	if got.Gets == 0 {
		t.Fatal("aggregate shows no pool traffic")
	}
	if hr := got.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("aggregate hit rate %v outside (0,1)", hr)
	}

	// Serial baseline: the same transfer on one engine builds and releases
	// exactly the same frames, so Gets and Puts must match the sharded sum.
	// News (pool misses) is partition-dependent — recycling cannot cross
	// shard pools — which is why pool_hit_rate is excluded from the
	// bit-identical differential at the scenario layer.
	ns := MustNew(DefaultConfig(), fixedScheme(gbps100))
	s0, s1 := ns.NewHost(), ns.NewHost()
	Connect(s0.Port(), s1.Port(), gbps100, prop)
	sf := ns.AddFlow(1, s0, s1, 50_000, 0)
	ns.RunUntil(sim.Millisecond)
	if !sf.Done() {
		t.Fatal("serial flow did not complete")
	}
	serial := ns.TotalPoolStats()
	if serial.Gets != got.Gets || serial.Puts != got.Puts {
		t.Fatalf("sharded pool traffic gets=%d puts=%d != serial gets=%d puts=%d",
			got.Gets, got.Puts, serial.Gets, serial.Puts)
	}
}
