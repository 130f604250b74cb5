package netsim

import (
	"testing"

	"repro/internal/sim"
)

// PFC cyclic-buffer-dependency tests (§2.3: "pauses can trigger PFC
// deadlocks and PFC storms"). A three-switch ring with clockwise
// shortest-path routing creates the classic dependency cycle; tiny PFC
// thresholds plus uncontrolled line-rate senders then wedge the ring. The
// long-pause watchdog must flag it.

// buildRing wires three switches in a cycle, one host each, with every
// flow routed clockwise across two inter-switch links.
func buildRing(t *testing.T, cfg Config, sch Scheme) (*Network, [3]*Host, [3]*Switch) {
	t.Helper()
	n := MustNew(cfg, sch)
	var hosts [3]*Host
	var sws [3]*Switch
	for i := range sws {
		sws[i] = n.NewSwitch(3) // port 0: host, 1: clockwise out, 2: from ccw
		hosts[i] = n.NewHost()
		Connect(hosts[i].Port(), sws[i].PortAt(0), gbps100, prop)
	}
	for i := range sws {
		Connect(sws[i].PortAt(1), sws[(i+1)%3].PortAt(2), gbps100, prop)
	}
	// Clockwise routing: switch i reaches host i via port 0 and every other
	// host via port 1.
	for i := range sws {
		sws[i].SetRule(hosts[i].ID(), []int{0}, []int{1})
	}
	return n, hosts, sws
}

func TestRingCyclicDependencyFlagsLongPauses(t *testing.T) {
	// Uncontrolled line-rate senders + small per-ingress PFC thresholds:
	// each inter-switch link carries two flows (2:1 overload), every
	// switch pauses its counter-clockwise neighbour, and the pause cycle
	// self-sustains. The watchdog must flag it.
	cfg := DefaultConfig()
	cfg.PFCPauseBytes = 25_000
	cfg.PFCResumeBytes = 20_000
	cfg.PFCLongPause = 200 * sim.Microsecond
	n, hosts, _ := buildRing(t, cfg, fixedScheme(gbps100))
	// Flow i: host i -> host i+2 (two clockwise hops); all three overlap
	// pairwise on every ring link.
	for i := 0; i < 3; i++ {
		n.AddFlow(uint64(i+1), hosts[i], hosts[(i+2)%3], 1<<30, 0)
	}
	n.RunUntil(3 * sim.Millisecond)

	if n.PauseFrames.N == 0 {
		t.Fatal("ring never paused — setup broken")
	}
	suspects := n.DeadlockSuspects()
	if n.LongPauses.N == 0 && len(suspects) == 0 {
		t.Fatal("cyclic dependency produced no long-pause signal")
	}
	if n.Drops.N != 0 {
		t.Fatalf("PFC on but %d drops", n.Drops.N)
	}
}

func TestRingWithFNCCStyleControlAvoidsLongPauses(t *testing.T) {
	// Same ring, same thresholds, but a window-limited CC (one BDP per
	// flow, i.e. what FNCC/HPCC enforce within an RTT of congestion):
	// queues stay under the PFC threshold and the watchdog stays quiet.
	cfg := DefaultConfig()
	cfg.PFCPauseBytes = 60_000
	cfg.PFCResumeBytes = 50_000
	cfg.PFCLongPause = 200 * sim.Microsecond
	cfg.BaseRTT = 10 * sim.Microsecond
	sch := Scheme{
		Name: "windowed",
		NewSenderCC: func(f *Flow) SenderCC {
			return &fixedCC{rate: gbps100 / 2, window: 40_000}
		},
		Receiver: echoReceiver{},
	}
	n, hosts, _ := buildRing(t, cfg, sch)
	for i := 0; i < 3; i++ {
		n.AddFlow(uint64(i+1), hosts[i], hosts[(i+2)%3], 5_000_000, 0)
	}
	n.RunUntil(3 * sim.Millisecond)
	if n.LongPauses.N != 0 || len(n.DeadlockSuspects()) != 0 {
		t.Fatalf("windowed senders still wedged the ring: %d long pauses", n.LongPauses.N)
	}
}

func TestDeadlockWatchdogDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCLongPause = 0
	n, hosts, _ := buildRing(t, cfg, fixedScheme(gbps100))
	n.AddFlow(1, hosts[0], hosts[2], 1_000_000, 0)
	n.RunUntil(sim.Millisecond)
	if n.LongPauses.N != 0 || n.DeadlockSuspects() != nil {
		t.Fatal("disabled watchdog reported")
	}
}

func TestPausedForAccounting(t *testing.T) {
	cfg := DefaultConfig()
	n, h0, _ := directPair(t, cfg, fixedScheme(gbps100), gbps100)
	n.Eng.Schedule(10*sim.Microsecond, func() {
		h0.Port().setPaused(true)
	})
	n.Eng.Schedule(30*sim.Microsecond, func() {
		if d := h0.Port().PausedFor(n.Eng.Now()); d != 20*sim.Microsecond {
			t.Errorf("PausedFor = %v want 20us", d)
		}
		h0.Port().setPaused(false)
		if d := h0.Port().PausedFor(n.Eng.Now()); d != 0 {
			t.Errorf("PausedFor after resume = %v", d)
		}
	})
	n.RunUntil(sim.Millisecond)
}
