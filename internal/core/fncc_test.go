package core

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
)

const gbps100 = int64(100e9)

func chain2(t *testing.T, sch netsim.Scheme) *topo.Chain {
	t.Helper()
	return topo.MustChain(netsim.DefaultConfig(), sch, topo.DefaultChainOpts(2))
}

// sniff wraps the FNCC sender and records the ACK telemetry it sees.
type sniff struct {
	*Sender
	lastHops int
	lastN    uint16
	ordering packet.HopOrdering
	firstHop packet.IntHop
}

func (s *sniff) OnAck(f *netsim.Flow, ack *packet.Packet, now sim.Time) {
	s.lastHops = ack.NHop()
	s.lastN = ack.N
	s.ordering = ack.Ordering
	if ack.NHop() > 0 {
		s.firstHop = ack.Hops[0]
	}
	s.Sender.OnAck(f, ack, now)
}

func TestFNCCAckCarriesReturnPathINT(t *testing.T) {
	cfg := DefaultConfig()
	sch := NewScheme(cfg)
	var probe *sniff
	inner := sch.NewSenderCC
	sch.NewSenderCC = func(f *netsim.Flow) netsim.SenderCC {
		s := &sniff{Sender: inner(f).(*Sender)}
		if probe == nil {
			probe = s
		}
		return s
	}
	c := chain2(t, sch)
	f := c.AddFlow(1, 0, 200_000, 0)
	c.Net.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if probe.lastHops != 3 {
		t.Fatalf("ACK hops = %d, want 3 (one per switch)", probe.lastHops)
	}
	if probe.ordering != packet.ReceiverToSender {
		t.Fatal("FNCC ACK must be receiver->sender ordered")
	}
	if probe.lastN != 1 {
		t.Fatalf("N = %d, want 1 (single inbound flow)", probe.lastN)
	}
	// Hops[0] is stamped by the switch nearest the receiver: the last chain
	// switch, whose egress toward the receiver is port 1.
	lastSw := c.Switches[len(c.Switches)-1]
	if probe.firstHop.SwitchID != lastSw.ID() || probe.firstHop.PortID != 1 {
		t.Fatalf("Hops[0] = switch %d port %d, want switch %d port 1",
			probe.firstHop.SwitchID, probe.firstHop.PortID, lastSw.ID())
	}
}

func TestFNCCDataCarriesNoINT(t *testing.T) {
	// FNCC's CP only touches ACKs: a hook counting data INT must stay zero.
	cfg := DefaultConfig()
	sch := NewScheme(cfg)
	c := chain2(t, sch)
	f := c.AddFlow(1, 0, 100_000, 0)
	c.Net.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	// Inspect the hooks: insertions happened (on ACKs); if data carried
	// INT the packet sizes (and HPCC echo) would show. The receiver-side
	// check: FNCC's receiver never copies hops from data.
	for _, sw := range c.Switches {
		h := sw.Hook().(*SwitchHook)
		if h.Inserted == 0 {
			t.Fatalf("switch %d inserted no INT into ACKs", sw.ID())
		}
	}
}

func TestReceiverWritesN(t *testing.T) {
	cfg := DefaultConfig()
	sch := NewScheme(cfg)
	c := topo.MustChain(netsim.DefaultConfig(), sch, topo.DefaultChainOpts(4))
	for i := 0; i < 4; i++ {
		c.AddFlow(uint64(i+1), i, 2_000_000, 0)
	}
	var maxN uint16
	inner := sch.NewSenderCC
	_ = inner
	// Sample N via the sender state of flow 0 after some time: ULink is
	// internal, so instead intercept at the receiver by reading
	// ActiveInbound directly while running.
	c.Net.RunUntil(100 * sim.Microsecond)
	if got := c.Receiver.ActiveInbound(); got != 4 {
		t.Fatalf("ActiveInbound = %d, want 4", got)
	}
	ack := &packet.Packet{Type: packet.Ack}
	Receiver{}.FillAck(ack, &packet.Packet{}, c.Receiver)
	if ack.N != 4 {
		t.Fatalf("FillAck N = %d, want 4", ack.N)
	}
	_ = maxN
}

func TestReceiverNFloorsAtOne(t *testing.T) {
	cfg := netsim.DefaultConfig()
	n := netsim.MustNew(cfg, NewScheme(DefaultConfig()))
	h := n.NewHost()
	ack := &packet.Packet{Type: packet.Ack}
	Receiver{}.FillAck(ack, &packet.Packet{}, h)
	if ack.N != 1 {
		t.Fatalf("N = %d, want floor of 1", ack.N)
	}
}

func TestLHCSTriggerConditions(t *testing.T) {
	cfg := DefaultConfig()
	sch := NewScheme(cfg)
	c := chain2(t, sch)
	f := c.AddFlow(1, 0, 1<<30, sim.Second) // never started; we drive manually
	s := f.CC().(*Sender)
	h := &s.HPCC

	mkAckLHCS := func(n uint16, lastB int64) *packet.Packet {
		a := &packet.Packet{Type: packet.Ack, N: n, Ordering: packet.ReceiverToSender}
		// Hops[0] = last request-path hop under FNCC ordering.
		a.AddHop(packet.IntHop{SwitchID: 5, B: lastB})
		a.AddHop(packet.IntHop{SwitchID: 4, B: gbps100})
		a.AddHop(packet.IntHop{SwitchID: 3, B: gbps100})
		return a
	}

	// Case 1: congestion at last hop above alpha -> Wc jumps to fair share.
	h.ULink = []float64{0.3, 0.5, 1.5}
	h.LastHopIndex = 2
	s.UpdateWc(h, f, mkAckLHCS(4, gbps100))
	wantFair := float64(gbps100) / 8 * h.T.Seconds() * cfg.Beta / 4
	if s.LHCSTriggers != 1 {
		t.Fatal("LHCS did not trigger")
	}
	if diff := h.Wc - wantFair; diff > 1 || diff < -1 {
		t.Fatalf("Wc = %v, want %v", h.Wc, wantFair)
	}

	// Case 2: most congested hop is NOT the last: no trigger.
	h.ULink = []float64{2.0, 0.5, 1.5}
	before := h.Wc
	s.UpdateWc(h, f, mkAckLHCS(4, gbps100))
	if s.LHCSTriggers != 1 || h.Wc != before {
		t.Fatal("LHCS fired for non-last-hop congestion")
	}

	// Case 3: last hop congested but below alpha: no trigger.
	h.ULink = []float64{0.2, 0.3, 1.01}
	s.UpdateWc(h, f, mkAckLHCS(4, gbps100))
	if s.LHCSTriggers != 1 {
		t.Fatal("LHCS fired below alpha")
	}

	// Case 4: N == 0 (no concurrency info): no trigger.
	h.ULink = []float64{0.2, 0.3, 2.0}
	s.UpdateWc(h, f, mkAckLHCS(0, gbps100))
	if s.LHCSTriggers != 1 {
		t.Fatal("LHCS fired without N")
	}
}

func TestLHCSDisabledAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableLHCS = false
	sch := NewScheme(cfg)
	c := chain2(t, sch)
	f := c.AddFlow(1, 0, 1<<30, sim.Second)
	s := f.CC().(*Sender)
	if s.HPCC.PreWindow != nil {
		t.Fatal("PreWindow installed despite EnableLHCS=false")
	}
	on := chain2(t, NewScheme(DefaultConfig())).AddFlow(1, 0, 1<<30, sim.Second).CC().(*Sender)
	if on.HPCC.PreWindow != cc.WindowHook(on) {
		t.Fatal("EnableLHCS=true must install the sender itself as PreWindow")
	}
}

// firstSlowdownAfter runs the Fig 9 micro-benchmark with the given scheme
// and returns the time flow0's pacing rate first drops below 85% of line
// after flow1 joins at 300us. (A lone HPCC/FNCC flow cruises near eta=95%
// of line, so the threshold must sit clearly below that.)
func firstSlowdownAfter(t *testing.T, sch netsim.Scheme) sim.Time {
	t.Helper()
	c := chain2(t, sch)
	f0 := c.AddFlow(1, 0, 1<<30, 0)
	c.AddFlow(2, 1, 1<<30, 300*sim.Microsecond)

	var at sim.Time = -1
	stop := c.Net.Eng.Ticker(200*sim.Nanosecond, func() {
		now := c.Net.Eng.Now()
		if at < 0 && now >= 300*sim.Microsecond &&
			float64(f0.CC().RateBps()) < 0.85*float64(gbps100) {
			at = now
		}
	})
	defer stop()
	c.Net.RunUntil(600 * sim.Microsecond)
	if at < 0 {
		t.Fatalf("%s never slowed down", sch.Name)
	}
	return at
}

func TestFNCCNotifiesFasterThanHPCC(t *testing.T) {
	// The paper's headline mechanism (Fig 9b): FNCC is the first to slow
	// down after congestion onset because return-path ACKs deliver INT in
	// sub-RTT time, while HPCC spends nearly a full RTT.
	fncc := firstSlowdownAfter(t, NewScheme(DefaultConfig()))
	hpcc := firstSlowdownAfter(t, cc.NewHPCCScheme(cc.DefaultHPCCConfig()))
	if fncc >= hpcc {
		t.Fatalf("FNCC slowdown at %v not before HPCC at %v", fncc, hpcc)
	}
	// The gap should be material: a few microseconds on a ~13us RTT.
	if hpcc-fncc < sim.Microsecond {
		t.Fatalf("notification advantage only %v", hpcc-fncc)
	}
}

func TestFNCCQueuePeakBelowHPCC(t *testing.T) {
	// Fig 9a: FNCC's earlier reaction caps the bottleneck queue lower.
	peak := func(sch netsim.Scheme) int64 {
		c := chain2(t, sch)
		c.AddFlow(1, 0, 1<<30, 0)
		c.AddFlow(2, 1, 1<<30, 300*sim.Microsecond)
		var maxQ int64
		stop := c.Net.Eng.Ticker(sim.Microsecond, func() {
			if q := c.BottleneckPort().QueueBytes(); q > maxQ {
				maxQ = q
			}
		})
		defer stop()
		c.Net.RunUntil(800 * sim.Microsecond)
		return maxQ
	}
	qf := peak(NewScheme(DefaultConfig()))
	qh := peak(cc.NewHPCCScheme(cc.DefaultHPCCConfig()))
	if qf == 0 || qh == 0 {
		t.Fatalf("no queue built (fncc=%d hpcc=%d)", qf, qh)
	}
	if qf >= qh {
		t.Fatalf("FNCC peak %dKB not below HPCC peak %dKB", qf/1000, qh/1000)
	}
}

func TestLHCSJumpsToFairRate(t *testing.T) {
	// Fig 13d: last-hop congestion with LHCS pins the flows near
	// fair*beta = B/N*0.9 quickly.
	opts := topo.DefaultChainOpts(2)
	opts.SenderAttach = []int{0, 2} // flow1 joins at the last switch
	c := topo.MustChain(netsim.DefaultConfig(), NewScheme(DefaultConfig()), opts)
	f0 := c.AddFlow(1, 0, 1<<30, 0)
	f1 := c.AddFlow(2, 1, 1<<30, 300*sim.Microsecond)
	c.Net.RunUntil(420 * sim.Microsecond)

	s0 := f0.CC().(*Sender)
	if s0.LHCSTriggers == 0 {
		t.Fatal("LHCS never triggered under last-hop congestion")
	}
	// Both flows should sit near 45G (fair 50G * beta 0.9) shortly after.
	r0, r1 := float64(f0.CC().RateBps()), float64(f1.CC().RateBps())
	for i, r := range []float64{r0, r1} {
		if r < 30e9 || r > 65e9 {
			t.Fatalf("flow%d rate %.1fG not near fair*beta (45G)", i, r/1e9)
		}
	}
	_ = f1
}

func TestFNCCWithPeriodicTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TableUpdatePeriod = 2 * sim.Microsecond
	c := chain2(t, NewScheme(cfg))
	f0 := c.AddFlow(1, 0, 2_000_000, 0)
	f1 := c.AddFlow(2, 1, 2_000_000, 0)
	c.Net.RunUntil(5 * sim.Millisecond)
	if !f0.Done() || !f1.Done() {
		t.Fatal("flows incomplete with periodic All_INT_Table")
	}
}

func TestPeriodicTableStaleness(t *testing.T) {
	// With a large All_INT_Table refresh period the INT is stale but the
	// system must remain stable and still outperform nothing-at-all:
	// flows complete and the queue stays bounded by the PFC threshold.
	cfg := DefaultConfig()
	cfg.TableUpdatePeriod = 20 * sim.Microsecond // ~1.5 RTTs stale
	c := chain2(t, NewScheme(cfg))
	c.AddFlow(1, 0, 1<<30, 0)
	c.AddFlow(2, 1, 1<<30, 300*sim.Microsecond)
	var maxQ int64
	stop := c.Net.Eng.Ticker(sim.Microsecond, func() {
		if q := c.BottleneckPort().QueueBytes(); q > maxQ {
			maxQ = q
		}
	})
	defer stop()
	c.Net.RunUntil(1200 * sim.Microsecond)
	if maxQ == 0 {
		t.Fatal("no queue — broken setup")
	}
	if maxQ > 500<<10 {
		t.Fatalf("stale-table queue hit %dKB (PFC threshold)", maxQ>>10)
	}
	if c.Net.Drops.N != 0 {
		t.Fatal("drops")
	}
}

func TestStaleTableWorseThanLive(t *testing.T) {
	// Freshness matters: the live-read table (period 0) should hold the
	// queue no higher than a very stale one.
	peak := func(period sim.Time) int64 {
		cfg := DefaultConfig()
		cfg.TableUpdatePeriod = period
		c := chain2(t, NewScheme(cfg))
		c.AddFlow(1, 0, 1<<30, 0)
		c.AddFlow(2, 1, 1<<30, 300*sim.Microsecond)
		var maxQ int64
		stop := c.Net.Eng.Ticker(sim.Microsecond, func() {
			if q := c.BottleneckPort().QueueBytes(); q > maxQ {
				maxQ = q
			}
		})
		defer stop()
		c.Net.RunUntil(900 * sim.Microsecond)
		return maxQ
	}
	live := peak(0)
	stale := peak(50 * sim.Microsecond)
	if live > stale+20_000 {
		t.Fatalf("live table (%dKB) much worse than 50us-stale (%dKB)?", live>>10, stale>>10)
	}
}

func TestFNCCPauseFramesAtMostHPCC(t *testing.T) {
	// Fig 3's shape at a stress level that actually provokes PFC: tighten
	// the pause threshold so the slower scheme hits it.
	pauses := func(sch netsim.Scheme) int64 {
		cfg := netsim.DefaultConfig()
		cfg.PFCPauseBytes = 120 << 10
		cfg.PFCResumeBytes = 100 << 10
		c := topo.MustChain(cfg, sch, topo.DefaultChainOpts(2))
		c.AddFlow(1, 0, 1<<30, 0)
		c.AddFlow(2, 1, 1<<30, 300*sim.Microsecond)
		c.Net.RunUntil(900 * sim.Microsecond)
		return c.Net.PauseFrames.N
	}
	pf := pauses(NewScheme(DefaultConfig()))
	ph := pauses(cc.NewHPCCScheme(cc.DefaultHPCCConfig()))
	if pf > ph {
		t.Fatalf("FNCC pauses (%d) exceed HPCC (%d)", pf, ph)
	}
}

func TestSenderNameAndDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Alpha <= 1 || cfg.Beta >= 1 || !cfg.EnableLHCS {
		t.Fatalf("defaults off: %+v", cfg)
	}
	c := chain2(t, NewScheme(cfg))
	f := c.AddFlow(1, 0, 1000, sim.Second)
	if f.CC().Name() != "FNCC" {
		t.Fatal("name")
	}
}
