package netsim

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The tests in this file pin the executor collapse: an unpartitioned network
// is the one-shard case of the only run loop, and the fabric totals are sums
// set at run boundaries.

// lossyChain builds two line-rate senders -> sw0 -> sw1 -> a half-rate
// receiver link, PFC on with a shared buffer too small for it to prevent loss,
// so drops, PAUSEs and long pauses all occur. With two shards the boundary is
// the inter-switch link. Each sender carries one 2 MB flow from time 0.
func lossyChain(t *testing.T, shards int) (*Network, []*Switch) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PFCPauseBytes = 25_000
	cfg.PFCResumeBytes = 20_000
	cfg.PFCLongPause = 5 * sim.Microsecond
	cfg.SharedBufferBytes = 50_000
	n := MustNew(cfg, fixedScheme(gbps100))
	if shards > 1 {
		n.ConfigureSharding(shards, shards)
	}
	n.BuildShard(0)
	s0, s1, sw0 := n.NewHost(), n.NewHost(), n.NewSwitch(3)
	n.BuildShard(shards - 1)
	sw1, recv := n.NewSwitch(2), n.NewHost()
	Connect(s0.Port(), sw0.PortAt(0), gbps100, prop)
	Connect(s1.Port(), sw0.PortAt(1), gbps100, prop)
	Connect(sw0.PortAt(2), sw1.PortAt(0), gbps100, prop)
	Connect(sw1.PortAt(1), recv.Port(), gbps100/2, prop)
	sw0.SetRoute(recv.ID(), 2)
	sw1.SetRoute(recv.ID(), 1)
	for i, h := range []*Host{s0, s1} {
		sw0.SetRoute(h.ID(), i)
		sw1.SetRoute(h.ID(), 0)
		n.AddFlow(uint64(i+1), h, recv, 2_000_000, 0)
	}
	return n, []*Switch{sw0, sw1}
}

// TestOneShardIsTheDefault: "serial" is a shard count, not a mode. The network
// New returns and one told ConfigureSharding(1, 4) run the same transfer to
// the same engine and pool counters and the same completion records, and
// neither reports a partition.
func TestOneShardIsTheDefault(t *testing.T) {
	run := func(configure bool) *Network {
		n := MustNew(DefaultConfig(), fixedScheme(gbps100))
		if configure {
			n.ConfigureSharding(1, 4)
		}
		senders := []*Host{n.NewHost(), n.NewHost()}
		recv, sw := n.NewHost(), n.NewSwitch(3)
		for i, h := range append(senders, recv) {
			Connect(h.Port(), sw.PortAt(i), gbps100, prop)
			sw.SetRoute(h.ID(), i)
		}
		n.AddFlow(1, senders[0], recv, 300_000, 0)
		n.AddFlow(2, senders[1], recv, 200_000, 10*sim.Microsecond)
		ticks := 0
		n.GlobalTicker(20*sim.Microsecond, func() { ticks++ })
		if !n.RunToCompletion(sim.Millisecond) {
			t.Fatalf("configure=%v: transfer did not complete", configure)
		}
		if ticks == 0 {
			t.Fatalf("configure=%v: ticker never fired", configure)
		}
		if n.Sharded() || n.Shards() != nil || n.ShardStats() != (ShardStats{}) {
			t.Errorf("configure=%v: Sharded=%v Shards=%v ShardStats=%+v, want false, nil and the zero value",
				configure, n.Sharded(), n.Shards(), n.ShardStats())
		}
		return n
	}
	fresh, one := run(false), run(true)
	if a, b := fresh.TotalEngineStats(), one.TotalEngineStats(); a != b || a.Processed == 0 {
		t.Errorf("TotalEngineStats: fresh %+v, ConfigureSharding(1, 4) %+v", a, b)
	}
	if a, b := fresh.TotalPoolStats(), one.TotalPoolStats(); a != b || a.Gets == 0 {
		t.Errorf("TotalPoolStats: fresh %+v, ConfigureSharding(1, 4) %+v", a, b)
	}
	if a, b := fresh.FCT.Records, one.FCT.Records; len(a) != 2 || !reflect.DeepEqual(a, b) {
		t.Errorf("FCT.Records: fresh %+v, ConfigureSharding(1, 4) %+v", a, b)
	}
	// The engine and pool a caller holds are the ones that ran.
	if fresh.Eng.Stats() != fresh.TotalEngineStats() || fresh.Pool.Stats() != fresh.TotalPoolStats() {
		t.Error("Network.Eng / Network.Pool are not the one shard's engine and pool")
	}
}

// TestFabricTotalsAreSums: after a lossy, PFC-on run the Network totals are the
// sums of the per-switch and per-port counts at one shard and at two — the
// values the hot-path counters of the previous executor produced — and a
// further RunUntil with nothing left to do leaves them alone (they are set,
// not accumulated).
func TestFabricTotalsAreSums(t *testing.T) {
	for _, shards := range []int{1, 2} {
		n, sws := lossyChain(t, shards)
		check := func(when string) {
			t.Helper()
			var drops, pauses int64
			for _, sw := range sws {
				drops += sw.Drops
				pauses += sw.PauseFrames
			}
			if n.Drops.N != drops || n.PauseFrames.N != pauses {
				t.Errorf("shards=%d %s: Drops=%d PauseFrames=%d, switches sum to %d and %d",
					shards, when, n.Drops.N, n.PauseFrames.N, drops, pauses)
			}
			if n.Drops.N != 7228 || n.PauseFrames.N != 331 || n.LongPauses.N != 330 {
				t.Errorf("shards=%d %s: Drops=%d PauseFrames=%d LongPauses=%d, want 7228, 331 and 330",
					shards, when, n.Drops.N, n.PauseFrames.N, n.LongPauses.N)
			}
			if n.FCT.N() != 2 {
				t.Errorf("shards=%d %s: %d FCT records, want 2", shards, when, n.FCT.N())
			}
		}
		if n.RunUntil(3 * sim.Millisecond); !n.AllDone() {
			t.Fatalf("shards=%d: flows did not recover from loss", shards)
		}
		check("after the run")
		n.RunUntil(4 * sim.Millisecond)
		n.RunUntil(4 * sim.Millisecond)
		check("after two idle runs")
	}

	// The wedged ring of TestRingCyclicDependencyFlagsLongPauses: six PAUSEs,
	// none ever released, so no episode is counted — as before the collapse.
	cfg := DefaultConfig()
	cfg.PFCPauseBytes = 25_000
	cfg.PFCResumeBytes = 20_000
	cfg.PFCLongPause = 200 * sim.Microsecond
	n, hosts, _ := buildRing(t, cfg, fixedScheme(gbps100))
	for i := 0; i < 3; i++ {
		n.AddFlow(uint64(i+1), hosts[i], hosts[(i+2)%3], 1<<30, 0)
	}
	n.RunUntil(3 * sim.Millisecond)
	if n.PauseFrames.N != 6 || n.LongPauses.N != 0 || len(n.DeadlockSuspects()) != 6 {
		t.Errorf("ring: PauseFrames=%d LongPauses=%d suspects=%d, want 6, 0 and 6",
			n.PauseFrames.N, n.LongPauses.N, len(n.DeadlockSuspects()))
	}
}
