package netsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// fixedCC is a degenerate sender CC: constant rate, huge window. It lets the
// substrate be tested independently of any real algorithm.
type fixedCC struct {
	rate   int64
	window int64
}

func (c *fixedCC) OnAck(*Flow, *packet.Packet, sim.Time) {}
func (c *fixedCC) WindowBytes() int64                    { return c.window }
func (c *fixedCC) RateBps() int64                        { return c.rate }

// echoReceiver copies data INT into the ACK (HPCC-style echo), no CNPs.
type echoReceiver struct{}

func (echoReceiver) FillAck(ack, data *packet.Packet, _ *Host) {
	ack.Ordering = packet.SenderToReceiver
	ack.Hops = append(ack.Hops[:0], data.Hops...)
}

func fixedScheme(rate int64) Scheme {
	return Scheme{
		Name:        "fixed",
		NewSenderCC: func(*Flow) SenderCC { return &fixedCC{rate: rate, window: 1 << 40} },
		Receiver:    echoReceiver{},
	}
}

const (
	gbps100 = int64(100e9)
	prop    = sim.Time(1500 * sim.Nanosecond)
)

// directPair builds h0 <-> h1 over one link.
func directPair(t *testing.T, cfg Config, sch Scheme, rate int64) (*Network, *Host, *Host) {
	t.Helper()
	n := MustNew(cfg, sch)
	h0, h1 := n.NewHost(), n.NewHost()
	Connect(h0.Port(), h1.Port(), rate, prop)
	return n, h0, h1
}

// chain builds the Fig 10 dumbbell: nSenders hosts on switch 0, a chain of
// nSwitches switches, one receiver on the last switch. Returns the pieces.
func chain(t *testing.T, cfg Config, sch Scheme, nSenders, nSwitches int, rate int64) (*Network, []*Host, *Host, []*Switch) {
	t.Helper()
	n := MustNew(cfg, sch)
	senders := make([]*Host, nSenders)
	for i := range senders {
		senders[i] = n.NewHost()
	}
	recv := n.NewHost()
	sws := make([]*Switch, nSwitches)
	for i := range sws {
		ports := 2
		if i == 0 {
			ports = nSenders + 1
		}
		sws[i] = n.NewSwitch(ports)
	}
	// Wire senders to switch 0 (ports 0..nSenders-1), chain on high ports.
	for i, h := range senders {
		Connect(h.Port(), sws[0].PortAt(i), rate, prop)
	}
	for i := 0; i < nSwitches-1; i++ {
		up := nSenders // switch 0's uplink port
		if i > 0 {
			up = 1
		}
		Connect(sws[i].PortAt(up), sws[i+1].PortAt(0), rate, prop)
	}
	last := sws[nSwitches-1]
	lastUp := 1
	if nSwitches == 1 {
		lastUp = nSenders
	}
	Connect(last.PortAt(lastUp), recv.Port(), rate, prop)

	// Rules: switch 0 reaches sender j on port j and the receiver (the next
	// id) on its uplink, port nSenders; every later switch reaches the
	// receiver on port 1 and everything else back on port 0.
	first := make([]int, nSenders+1)
	for j := range first {
		first[j] = j
	}
	sws[0].SetRule(senders[0].ID(), first, nil)
	for _, sw := range sws[1:] {
		sw.SetRule(recv.ID(), []int{1}, []int{0})
	}
	return n, senders, recv, sws
}

func TestDirectTransferTiming(t *testing.T) {
	cfg := DefaultConfig()
	n, h0, h1 := directPair(t, cfg, fixedScheme(gbps100), gbps100)
	size := int64(2 * cfg.PayloadBytes()) // exactly two full MTUs
	f := n.AddFlow(1, h0, h1, size, 0)
	n.RunUntil(sim.Millisecond)

	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	// Two back-to-back MTUs at 100G: finish = 2*tx(MTU) + prop.
	want := 2*sim.TxTime(1518, gbps100) + prop
	if f.FinishedAt != want {
		t.Fatalf("FinishedAt = %v want %v", f.FinishedAt, want)
	}
	if f.Inflight() != 0 || !f.Finished() {
		t.Fatal("sender state not drained")
	}
}

func TestPacingSlowerThanLine(t *testing.T) {
	cfg := DefaultConfig()
	n, h0, h1 := directPair(t, cfg, fixedScheme(gbps100/2), gbps100)
	size := int64(10 * cfg.PayloadBytes())
	f := n.AddFlow(1, h0, h1, size, 0)
	n.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	// Paced at 50G, packets leave every tx(MTU@50G); last starts at
	// 9*gap, finishes serializing +tx(MTU@100G), arrives +prop.
	gap := sim.TxTime(1518, gbps100/2)
	want := 9*gap + sim.TxTime(1518, gbps100) + prop
	if f.FinishedAt != want {
		t.Fatalf("FinishedAt = %v want %v", f.FinishedAt, want)
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	cfg := DefaultConfig()
	sch := Scheme{
		Name: "win",
		NewSenderCC: func(*Flow) SenderCC {
			return &fixedCC{rate: gbps100, window: 3000} // ~2 segments
		},
		Receiver: echoReceiver{},
	}
	n, h0, h1 := directPair(t, cfg, sch, gbps100)
	f := n.AddFlow(1, h0, h1, 100_000, 0)

	maxInflight := int64(0)
	stop := n.Eng.Ticker(100*sim.Nanosecond, func() {
		if v := f.Inflight(); v > maxInflight {
			maxInflight = v
		}
	})
	defer stop()
	n.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if maxInflight > 3000 {
		t.Fatalf("inflight reached %d with window 3000", maxInflight)
	}
}

func TestChainDelivery(t *testing.T) {
	cfg := DefaultConfig()
	n, senders, recv, _ := chain(t, cfg, fixedScheme(gbps100), 2, 3, gbps100)
	f0 := n.AddFlow(1, senders[0], recv, 50_000, 0)
	f1 := n.AddFlow(2, senders[1], recv, 50_000, 0)
	n.RunUntil(10 * sim.Millisecond)
	if !f0.Done() || !f1.Done() {
		t.Fatal("chain flows did not complete")
	}
	if n.Drops.N != 0 {
		t.Fatalf("unexpected drops: %d", n.Drops.N)
	}
	_ = recv
}

func TestBottleneckQueueBuilds(t *testing.T) {
	// Two line-rate senders share one egress: the bottleneck queue must
	// grow while both are active (fixed CC never slows down).
	cfg := DefaultConfig()
	cfg.PFCEnabled = false
	n, senders, recv, sws := chain(t, cfg, fixedScheme(gbps100), 2, 3, gbps100)
	n.AddFlow(1, senders[0], recv, 2_000_000, 0)
	n.AddFlow(2, senders[1], recv, 2_000_000, 0)
	n.RunUntil(50 * sim.Microsecond)
	q := sws[0].PortAt(2).QueueBytes() // switch 0 uplink
	if q < 100_000 {
		t.Fatalf("bottleneck queue only %dB after 50us of 2:1 overload", q)
	}
}

func TestPFCPausesUpstreamAndPreventsLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCPauseBytes = 30_000
	cfg.PFCResumeBytes = 20_000
	n, senders, recv, sws := chain(t, cfg, fixedScheme(gbps100), 2, 3, gbps100)
	n.AddFlow(1, senders[0], recv, 3_000_000, 0)
	n.AddFlow(2, senders[1], recv, 3_000_000, 0)
	n.RunUntil(2 * sim.Millisecond)

	if n.PauseFrames.N == 0 {
		t.Fatal("no pause frames under persistent 2:1 overload")
	}
	if n.Drops.N != 0 {
		t.Fatalf("PFC on but %d drops", n.Drops.N)
	}
	// Pauses must come from the congested switch (switch 0).
	if sws[0].PauseFrames == 0 {
		t.Fatal("congestion-point switch sent no pauses")
	}
	if sws[0].ResumeFrames == 0 {
		t.Fatal("no resumes sent")
	}
}

func TestPFCIngressAccountingDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCPauseBytes = 30_000
	cfg.PFCResumeBytes = 20_000
	n, senders, recv, sws := chain(t, cfg, fixedScheme(gbps100), 2, 3, gbps100)
	f0 := n.AddFlow(1, senders[0], recv, 500_000, 0)
	f1 := n.AddFlow(2, senders[1], recv, 500_000, 0)
	n.RunUntil(10 * sim.Millisecond)
	if !f0.Done() || !f1.Done() {
		t.Fatal("flows did not complete under PFC")
	}
	for _, sw := range sws {
		if sw.BufferedBytes() != 0 {
			t.Fatalf("switch %d buffer not drained: %d", sw.ID(), sw.BufferedBytes())
		}
		for i, b := range sw.ingressBytes {
			if b != 0 {
				t.Fatalf("switch %d ingress %d accounting leak: %d", sw.ID(), i, b)
			}
			if sw.upstreamPaused[i] {
				t.Fatalf("switch %d left port %d paused", sw.ID(), i)
			}
		}
	}
}

func TestDropAndGoBackNRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCEnabled = false
	cfg.SharedBufferBytes = 12_000 // ~8 MTUs: forces loss under 2:1
	n, senders, recv, sws := chain(t, cfg, fixedScheme(gbps100), 2, 3, gbps100)
	isSwitch := map[int32]bool{}
	for _, sw := range sws {
		isSwitch[sw.ID()] = true
	}
	var traced int64
	n.Trace = func(ev TraceEvent) {
		if ev.Kind != TraceDrop {
			return
		}
		traced++
		if ev.Port != -1 || !isSwitch[ev.Node] {
			t.Errorf("bad drop event: %+v", ev)
		}
	}
	f0 := n.AddFlow(1, senders[0], recv, 300_000, 0)
	f1 := n.AddFlow(2, senders[1], recv, 300_000, 0)
	n.RunUntil(100 * sim.Millisecond)
	if n.Drops.N == 0 {
		t.Fatal("expected drops with tiny buffer and no PFC")
	}
	if traced != n.Drops.N {
		t.Errorf("traced %d drop events, counter says %d", traced, n.Drops.N)
	}
	if !f0.Done() || !f1.Done() {
		t.Fatalf("flows did not recover from loss (drops=%d, f0=%v f1=%v)",
			n.Drops.N, f0.Done(), f1.Done())
	}
}

func TestHPCCStyleIntEcho(t *testing.T) {
	// With a hook that stamps INT on data at every switch, the echoed ACK
	// must carry one hop per switch, in sender->receiver order.
	cfg := DefaultConfig()
	sch := fixedScheme(gbps100)
	sch.NewSwitchHook = func(sw *Switch) SwitchHook { return dataStampHook{} }
	n, senders, recv, _ := chain(t, cfg, sch, 1, 3, gbps100)

	var sawHops int
	origReceiver := sch.Receiver
	_ = origReceiver
	f := n.AddFlow(1, senders[0], recv, 10_000, 0)
	n.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	// Inspect via a second flow whose ACK we sniff through CC.
	probe := &sniffCC{}
	sch2 := sch
	sch2.NewSenderCC = func(*Flow) SenderCC { probe.fixedCC = fixedCC{rate: gbps100, window: 1 << 40}; return probe }
	n2, senders2, recv2, _ := chain(t, cfg, sch2, 1, 3, gbps100)
	n2.AddFlow(1, senders2[0], recv2, 10_000, 0)
	n2.RunUntil(sim.Millisecond)
	sawHops = probe.maxHops
	if sawHops != 3 {
		t.Fatalf("ACK carried %d INT hops, want 3", sawHops)
	}
	if probe.lastOrdering != packet.SenderToReceiver {
		t.Fatal("echoed INT should be sender->receiver ordered")
	}
	if probe.firstHopSwitch < 0 {
		t.Fatal("no hops seen")
	}
}

// dataStampHook emulates HPCC's CP: stamp egress INT on data at dequeue.
type dataStampHook struct{}

func (dataStampHook) OnEnqueue(*Switch, *packet.Packet, int) {}
func (dataStampHook) OnDequeue(sw *Switch, pkt *packet.Packet, outPort int) {
	if pkt.Type == packet.Data {
		pkt.AddHop(sw.PortINT(outPort))
	}
}

// sniffCC records telemetry of the ACKs it sees.
type sniffCC struct {
	fixedCC
	maxHops        int
	lastOrdering   packet.HopOrdering
	firstHopSwitch int32
}

func (s *sniffCC) OnAck(f *Flow, ack *packet.Packet, now sim.Time) {
	if ack.NHop() > s.maxHops {
		s.maxHops = ack.NHop()
	}
	s.lastOrdering = ack.Ordering
	if ack.NHop() > 0 {
		s.firstHopSwitch = ack.Hops[0].SwitchID
	} else {
		s.firstHopSwitch = -1
	}
}

// TestAckPerSegment: the receiver ACKs every in-order segment, so a sender
// hears about each data packet's path once (no coalescing).
func TestAckPerSegment(t *testing.T) {
	cfg := DefaultConfig()
	probe := &countAckCC{fixedCC: fixedCC{rate: gbps100, window: 1 << 40}}
	sch := Scheme{
		Name:        "count",
		NewSenderCC: func(*Flow) SenderCC { return probe },
		Receiver:    echoReceiver{},
	}
	n, h0, h1 := directPair(t, cfg, sch, gbps100)
	segs := 7
	f := n.AddFlow(1, h0, h1, int64(segs*cfg.PayloadBytes()), 0)
	n.RunUntil(sim.Millisecond)
	if !f.Done() || !f.Finished() {
		t.Fatal("flow did not complete")
	}
	if probe.acks != segs {
		t.Fatalf("got %d ACKs for %d segments", probe.acks, segs)
	}
}

type countAckCC struct {
	fixedCC
	acks int
}

func (c *countAckCC) OnAck(*Flow, *packet.Packet, sim.Time) { c.acks++ }

func TestECMPSymmetricPathsCoincide(t *testing.T) {
	// Diamond: h0 - swL - {m0|m1} - swR - h1. With symmetric hashing the
	// data and ACK of one flow must use the same middle switch.
	build := func() (dataM0, dataM1, ackM0, ackM1 uint64) {
		n := MustNew(DefaultConfig(), fixedScheme(gbps100))
		h0, h1 := n.NewHost(), n.NewHost()
		swL, swR := n.NewSwitch(3), n.NewSwitch(3)
		m0, m1 := n.NewSwitch(2), n.NewSwitch(2)
		Connect(h0.Port(), swL.PortAt(0), gbps100, prop)
		Connect(h1.Port(), swR.PortAt(0), gbps100, prop)
		Connect(swL.PortAt(1), m0.PortAt(0), gbps100, prop)
		Connect(swL.PortAt(2), m1.PortAt(0), gbps100, prop)
		Connect(m0.PortAt(1), swR.PortAt(1), gbps100, prop)
		Connect(m1.PortAt(1), swR.PortAt(2), gbps100, prop)
		swL.SetRule(h0.ID(), []int{0}, []int{1, 2})
		swR.SetRule(h1.ID(), []int{0}, []int{1, 2})
		for _, m := range []*Switch{m0, m1} {
			m.SetRule(h0.ID(), []int{0, 1}, nil) // h0, h1 are ids 0, 1
		}
		// Several flows for hash diversity.
		for i := uint64(0); i < 8; i++ {
			n.AddFlow(i+1, h0, h1, 30_000, 0)
		}
		n.RunUntil(5 * sim.Millisecond)
		// m0/m1 port 1 carries data (toward swR); port 0 carries ACKs back.
		return m0.PortAt(1).TxDataBytes(), m1.PortAt(1).TxDataBytes(),
			m0.PortAt(0).TxBytes(), m1.PortAt(0).TxBytes()
	}

	d0, d1, a0, a1 := build()
	if d0+d1 == 0 {
		t.Fatal("no data traversed the diamond")
	}
	if d0 == 0 || d1 == 0 {
		t.Log("all flows hashed to one path; acceptable but weakens the test")
	}
	// Symmetric: ACK bytes only where data bytes flowed.
	if (d0 == 0) != (a0 == 0) || (d1 == 0) != (a1 == 0) {
		t.Fatalf("symmetric hashing: data(m0=%d,m1=%d) acks(m0=%d,m1=%d)", d0, d1, a0, a1)
	}
}

func TestActiveInboundTracksQPs(t *testing.T) {
	cfg := DefaultConfig()
	n, senders, recv, _ := chain(t, cfg, fixedScheme(gbps100), 2, 3, gbps100)
	n.AddFlow(1, senders[0], recv, 500_000, 0)
	n.AddFlow(2, senders[1], recv, 500_000, 10*sim.Microsecond)
	if recv.ActiveInbound() != 0 {
		t.Fatal("QPs active before start")
	}
	n.RunUntil(11 * sim.Microsecond)
	if recv.ActiveInbound() != 2 {
		t.Fatalf("ActiveInbound = %d want 2", recv.ActiveInbound())
	}
	n.RunUntil(10 * sim.Millisecond)
	if recv.ActiveInbound() != 0 {
		t.Fatalf("ActiveInbound = %d after completion", recv.ActiveInbound())
	}
}

func TestFCTRecorded(t *testing.T) {
	cfg := DefaultConfig()
	n, h0, h1 := directPair(t, cfg, fixedScheme(gbps100), gbps100)
	f := n.AddFlow(7, h0, h1, 5000, 2*sim.Microsecond)
	f.IdealFCT = 2 * sim.Microsecond
	n.RunUntil(sim.Millisecond)
	if n.FCT.N() != 1 {
		t.Fatalf("FCT records = %d", n.FCT.N())
	}
	r := n.FCT.Records[0]
	if r.FlowID != 7 || r.SizeBytes != 5000 || r.Start != 2*sim.Microsecond {
		t.Fatalf("record = %+v", r)
	}
	if r.Ideal != 2*sim.Microsecond {
		t.Fatalf("ideal not propagated: %v", r.Ideal)
	}
}

func TestRunToCompletion(t *testing.T) {
	cfg := DefaultConfig()
	n, h0, h1 := directPair(t, cfg, fixedScheme(gbps100), gbps100)
	n.AddFlow(1, h0, h1, 100_000, 0)
	if !n.RunToCompletion(sim.Second) {
		t.Fatal("RunToCompletion returned false")
	}
	if !n.AllDone() {
		t.Fatal("AllDone false after completion")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MTUBytes = 10 },
		func(c *Config) { c.PFCResumeBytes = c.PFCPauseBytes },
		func(c *Config) { c.SharedBufferBytes = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg, fixedScheme(gbps100)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), Scheme{Name: "empty"}); err == nil {
		t.Error("scheme without sender accepted")
	}
}

func TestAddFlowValidation(t *testing.T) {
	n, h0, _ := directPair(t, DefaultConfig(), fixedScheme(gbps100), gbps100)
	for _, fn := range []func(){
		func() { n.AddFlow(1, h0, h0, 100, 0) },
		func() { n.AddFlow(1, h0, n.Hosts[1], 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPortINTSnapshot(t *testing.T) {
	n := MustNew(DefaultConfig(), fixedScheme(gbps100))
	sw := n.NewSwitch(2)
	h0, h1 := n.NewHost(), n.NewHost()
	Connect(h0.Port(), sw.PortAt(0), gbps100, prop)
	Connect(h1.Port(), sw.PortAt(1), gbps100, prop)
	sw.SetRule(h0.ID(), []int{0, 1}, nil)
	n.AddFlow(1, h0, h1, 50_000, 0)
	n.RunUntil(20 * sim.Microsecond)
	h := sw.PortINT(1)
	if h.SwitchID != sw.ID() || h.PortID != 1 || h.B != gbps100 {
		t.Fatalf("INT identity fields: %+v", h)
	}
	if h.TxBytes == 0 {
		t.Fatal("INT txBytes should be nonzero after traffic")
	}
	if h.TS != n.Eng.Now() {
		t.Fatal("INT timestamp should be 'now' for live reads")
	}
}

// TestSingleClassUnchangedTiming pins the exact single-flow timing on the
// one service level every port carries: two back-to-back full frames plus
// one propagation delay.
func TestSingleClassUnchangedTiming(t *testing.T) {
	cfg := DefaultConfig()
	n, h0, h1 := directPair(t, cfg, fixedScheme(gbps100), gbps100)
	size := int64(2 * cfg.PayloadBytes())
	f := n.AddFlow(1, h0, h1, size, 0)
	n.RunUntil(sim.Millisecond)
	want := 2*sim.TxTime(1518, gbps100) + prop
	if f.FinishedAt != want {
		t.Fatalf("FinishedAt = %v want %v", f.FinishedAt, want)
	}
}

// TestNoSprayingNoReorder: ECMP hashes per flow, so every frame of a flow
// takes one path even where the equal-cost paths differ in delay, and
// go-back-N never sees a gap. The diamond is h0 - swL = {m0|m1} = swR - h1
// with the m1 path four times slower.
func TestNoSprayingNoReorder(t *testing.T) {
	n := MustNew(DefaultConfig(), fixedScheme(gbps100))
	h0, h1 := n.NewHost(), n.NewHost()
	swL, swR := n.NewSwitch(3), n.NewSwitch(3)
	m0, m1 := n.NewSwitch(2), n.NewSwitch(2)
	Connect(h0.Port(), swL.PortAt(0), gbps100, prop)
	Connect(h1.Port(), swR.PortAt(0), gbps100, prop)
	Connect(swL.PortAt(1), m0.PortAt(0), gbps100, prop)
	Connect(swL.PortAt(2), m1.PortAt(0), gbps100, 4*prop)
	Connect(m0.PortAt(1), swR.PortAt(1), gbps100, prop)
	Connect(m1.PortAt(1), swR.PortAt(2), gbps100, 4*prop)
	swL.SetRule(h0.ID(), []int{0}, []int{1, 2})
	swR.SetRule(h1.ID(), []int{0}, []int{1, 2})
	for _, m := range []*Switch{m0, m1} {
		m.SetRule(h0.ID(), []int{0, 1}, nil) // h0, h1 are ids 0, 1
	}
	var nacks int
	n.Trace = func(ev TraceEvent) {
		if ev.Type == packet.Nack {
			nacks++
		}
	}
	f := n.AddFlow(1, h0, h1, 500_000, 0)
	n.RunUntil(50 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if nacks != 0 {
		t.Fatalf("per-flow hashing produced %d NACKs", nacks)
	}
}
