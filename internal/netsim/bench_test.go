package netsim

import (
	"testing"

	"repro/internal/benchpair"
	"repro/internal/sim"
)

// oneSwitch builds the minimal forwarding path: one sender, one switch, one
// receiver.
func oneSwitch(rate int64) (n *Network, snd, recv *Host) {
	n = MustNew(DefaultConfig(), fixedScheme(rate))
	snd, recv = n.NewHost(), n.NewHost()
	sw := n.NewSwitch(2)
	Connect(snd.Port(), sw.PortAt(0), rate, prop)
	Connect(sw.PortAt(1), recv.Port(), rate, prop)
	sw.SetRule(snd.ID(), []int{0, 1}, nil) // snd, recv are ids 0, 1
	return n, snd, recv
}

// forwardFixture is oneSwitch with an elephant flow that keeps the
// bottleneck busy forever, warmed past the transient so the event and packet
// pools are primed.
func forwardFixture(rate int64) *Network {
	n, snd, recv := oneSwitch(rate)
	n.AddFlow(1, snd, recv, 1<<50, 0)
	n.RunUntil(200 * sim.Microsecond) // prime pools, reach steady state
	return n
}

// nicSchedFixture is oneSwitch after history short flows from the sender
// have come and gone, with two elephant flows then sharing the sender's NIC,
// warmed like forwardFixture. Whatever history is, the same two flows are
// live, so the per-event cost must not depend on it.
func nicSchedFixture(tb testing.TB, history int) *Network {
	n, snd, recv := oneSwitch(gbps100)
	for i := 0; i < history; i++ {
		n.AddFlow(uint64(i+1), snd, recv, 1000, sim.Time(i)*sim.Microsecond)
	}
	if !n.RunToCompletion(sim.Second) {
		tb.Fatal("history flows did not finish")
	}
	now := n.Eng.Now()
	n.AddFlow(uint64(history+1), snd, recv, 1<<50, now)
	n.AddFlow(uint64(history+2), snd, recv, 1<<50, now)
	n.RunUntil(now + 200*sim.Microsecond)
	return n
}

// steps runs count engine steps of n.
func steps(b *testing.B, n *Network, count int) {
	for i := 0; i < count; i++ {
		if !n.Eng.Step() {
			b.Fatal("engine drained: fixture flow ended")
		}
	}
}

// BenchmarkNICHistory pairs the two ends of the "per-frame cost is
// independent of flow history" claim: two live flows round-robin on one
// NIC, on a host that has finished 4,096 flows and on a fresh one, 1,024
// engine steps a side. CI holds it at 0 allocs/op and its ratio under 1.15.
func BenchmarkNICHistory(b *testing.B) {
	after, fresh := nicSchedFixture(b, 4096), nicSchedFixture(b, 0)
	b.ReportAllocs()
	benchpair.Ratio(b, func() { steps(b, after, 1024) }, func() { steps(b, fresh, 1024) })
}

// BenchmarkOneHopForward measures the per-event cost of the full forwarding
// hot path in steady state: NIC send, switch ingress/egress, ACK
// generation, sender CC — all from pooled packets and pooled events. The
// acceptance bar is 0 allocs/op.
func BenchmarkOneHopForward(b *testing.B) {
	n := forwardFixture(gbps100)
	b.ReportAllocs()
	b.ResetTimer()
	steps(b, n, b.N)
}

// TestForwardSteadyStateZeroAlloc pins the benchmark's claim as a test: once
// pools are warm, driving the one-hop forwarding path allocates nothing.
func TestForwardSteadyStateZeroAlloc(t *testing.T) {
	n := forwardFixture(gbps100)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 2000; i++ {
			if !n.Eng.Step() {
				t.Fatal("engine drained")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state forwarding allocates %.1f/run (want 0)", allocs)
	}
	// The pools should be doing essentially all the work by now.
	if hr := n.Pool.Stats().HitRate(); hr < 0.85 {
		t.Fatalf("packet pool hit rate %.3f, want > 0.85", hr)
	}
	if rr := n.Eng.Stats().ReuseRate(); rr < 0.85 {
		t.Fatalf("event slot reuse rate %.3f, want > 0.85", rr)
	}
}

// TestPooledPacketLifecycle sanity-checks the single-owner rule end to end:
// after a bounded transfer drains, every pooled frame has been released
// exactly once (gets == puts; the double-Put panic guards the "at most
// once" half).
func TestPooledPacketLifecycle(t *testing.T) {
	n, snd, recv := oneSwitch(gbps100)
	f := n.AddFlow(1, snd, recv, 256*1024, 0)
	n.RunUntil(10 * sim.Millisecond)
	if !f.Finished() || !f.Done() {
		t.Fatal("flow did not drain")
	}
	st := n.Pool.Stats()
	if st.Gets == 0 {
		t.Fatal("pool unused")
	}
	if st.Gets != st.Puts {
		t.Fatalf("leaked packets: %d gets vs %d puts", st.Gets, st.Puts)
	}
}
