package netsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Edge-case and failure-injection tests for the substrate, beyond the
// happy paths of netsim_test.go.

func TestHostObeysPFCPause(t *testing.T) {
	// Pause the sender's NIC directly at t=10us, resume at 50us: no data
	// may serialize in between, and transmission must resume afterwards.
	cfg := DefaultConfig()
	n, h0, h1 := directPair(t, cfg, fixedScheme(gbps100), gbps100)
	f := n.AddFlow(1, h0, h1, 1_000_000, 0)

	n.Eng.Schedule(10*sim.Microsecond, func() {
		h0.Receive(&packet.Packet{Type: packet.PfcPause}, 0)
	})
	var txAtPause, txAtResume uint64
	n.Eng.Schedule(11*sim.Microsecond, func() { txAtPause = h0.Port().TxBytes() })
	n.Eng.Schedule(50*sim.Microsecond, func() {
		txAtResume = h0.Port().TxBytes()
		h0.Receive(&packet.Packet{Type: packet.PfcResume}, 0)
	})
	n.RunUntil(sim.Millisecond)

	if !f.Done() {
		t.Fatal("flow did not finish after resume")
	}
	// At most one in-flight frame may have completed serialization after
	// the pause landed.
	if txAtResume > txAtPause+1518 {
		t.Fatalf("host transmitted %d bytes while paused", txAtResume-txAtPause)
	}
}

func TestControlFramesBypassPausedQueue(t *testing.T) {
	// A paused port must still emit PFC control frames (they are what
	// un-wedges the fabric). Pause a switch egress via a deep queue and
	// verify its upstream-facing PAUSE got through while data stalled.
	cfg := DefaultConfig()
	cfg.PFCPauseBytes = 20_000
	cfg.PFCResumeBytes = 15_000
	n, senders, recv, sws := chain(t, cfg, fixedScheme(gbps100), 2, 3, gbps100)
	f0 := n.AddFlow(1, senders[0], recv, 400_000, 0)
	f1 := n.AddFlow(2, senders[1], recv, 400_000, 0)
	n.RunUntil(10 * sim.Millisecond)
	if !f0.Done() || !f1.Done() {
		t.Fatal("flows wedged under tight PFC")
	}
	if sws[0].PauseFrames == 0 || sws[0].ResumeFrames != sws[0].PauseFrames {
		t.Fatalf("pause/resume imbalance: %d/%d", sws[0].PauseFrames, sws[0].ResumeFrames)
	}
}

func TestStaleRetransmissionReAcked(t *testing.T) {
	// Deliver a duplicate data segment (seq < rcvNxt): the receiver must
	// re-ACK cumulatively rather than panic or regress.
	cfg := DefaultConfig()
	n, h0, h1 := directPair(t, cfg, fixedScheme(gbps100), gbps100)
	f := n.AddFlow(1, h0, h1, 10*1452, 0)
	n.RunUntil(5 * sim.Microsecond) // a few segments delivered
	already := f.RcvNxt()
	if already == 0 {
		t.Fatal("no progress yet; timing assumption broken")
	}
	dup := &packet.Packet{
		Type: packet.Data, FlowID: 1, Src: h0.ID(), Dst: h1.ID(),
		Seq: 0, PayloadBytes: 1452,
	}
	h1.Receive(dup, 0)
	if f.RcvNxt() != already {
		t.Fatal("duplicate moved rcvNxt")
	}
	n.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow did not complete after duplicate")
	}
}

func TestRetxTimeoutRewinds(t *testing.T) {
	// Inject a gap the receiver never saw (simulate loss by advancing
	// sndNxt without transmitting... easiest real path: drop via tiny
	// buffer with NACKs disabled through a huge NackMinGap, forcing the
	// RTO path to recover).
	cfg := DefaultConfig()
	cfg.PFCEnabled = false
	cfg.SharedBufferBytes = 10_000
	cfg.NackMinGap = sim.Second // NACKs effectively off
	cfg.RetxTimeout = 200 * sim.Microsecond
	n, senders, recv, _ := chain(t, cfg, fixedScheme(gbps100), 2, 3, gbps100)
	f0 := n.AddFlow(1, senders[0], recv, 150_000, 0)
	f1 := n.AddFlow(2, senders[1], recv, 150_000, 0)
	n.RunUntil(200 * sim.Millisecond)
	if n.Drops.N == 0 {
		t.Fatal("no loss provoked")
	}
	if !f0.Done() || !f1.Done() {
		t.Fatalf("RTO did not recover (drops=%d)", n.Drops.N)
	}
}

func TestRetxDisabled(t *testing.T) {
	// RetxTimeout=0 disables the backstop; with no loss everything still
	// completes (guards the nil-timer paths).
	cfg := DefaultConfig()
	cfg.RetxTimeout = 0
	n, h0, h1 := directPair(t, cfg, fixedScheme(gbps100), gbps100)
	f := n.AddFlow(1, h0, h1, 100_000, 0)
	n.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete with RTO disabled")
	}
}

func TestMinRateFloorKeepsProgress(t *testing.T) {
	// A CC that returns rate 0 must still make progress via the 1 Mbps
	// pacing floor rather than dividing by zero or stalling forever.
	sch := Scheme{
		Name:        "zero",
		NewSenderCC: func(*Flow) SenderCC { return &fixedCC{rate: 0, window: 1 << 40} },
		Receiver:    echoReceiver{},
	}
	n, h0, h1 := directPair(t, DefaultConfig(), sch, gbps100)
	f := n.AddFlow(1, h0, h1, 3000, 0)
	n.RunUntil(100 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("zero-rate CC starved the flow")
	}
}

func TestTinyWindowStillSendsOneSegment(t *testing.T) {
	// Window below one MTU: the flow must still progress one segment at a
	// time (CCs clamp to >= MTU, but the substrate should not deadlock on
	// a hostile CC either — the first packet of an idle flow fits because
	// inflight is 0 and seg <= window fails... verify the documented
	// behaviour: a sub-MTU window with full-MTU segments stalls, while a
	// window of exactly one segment proceeds).
	sch := Scheme{
		Name:        "onemtu",
		NewSenderCC: func(*Flow) SenderCC { return &fixedCC{rate: gbps100, window: 1518} },
		Receiver:    echoReceiver{},
	}
	n, h0, h1 := directPair(t, DefaultConfig(), sch, gbps100)
	f := n.AddFlow(1, h0, h1, 50_000, 0)
	n.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("one-MTU window did not complete")
	}
}

func TestManyFlowsOneHostRoundRobin(t *testing.T) {
	// 8 concurrent flows from one NIC: round-robin injection must give
	// all of them forward progress and eventually complete all.
	cfg := DefaultConfig()
	n, h0, h1 := directPair(t, cfg, fixedScheme(gbps100), gbps100)
	var flows []*Flow
	for i := uint64(1); i <= 8; i++ {
		flows = append(flows, n.AddFlow(i, h0, h1, 200_000, 0))
	}
	n.RunUntil(sim.Millisecond)
	mid := 0
	for _, f := range flows {
		if f.RcvNxt() > 0 {
			mid++
		}
	}
	n.RunUntil(10 * sim.Millisecond)
	for _, f := range flows {
		if !f.Done() {
			t.Fatal("flow starved under round-robin")
		}
	}
	if mid < 8 {
		t.Fatalf("only %d/8 flows progressed concurrently", mid)
	}
}

func TestPortAccessors(t *testing.T) {
	_, h0, h1 := directPair(t, DefaultConfig(), fixedScheme(gbps100), gbps100)
	p := h0.Port()
	if p.Owner() != h0 || p.Index() != 0 {
		t.Fatal("port identity")
	}
	if p.Peer() != h1.Port() {
		t.Fatal("peer wiring")
	}
	if p.RateBps() != gbps100 || p.PropDelay() != prop {
		t.Fatal("link params")
	}
	if p.Paused() {
		t.Fatal("fresh port paused")
	}
	if h0.NumPorts() != 1 || h0.PortAt(0) != p {
		t.Fatal("host ports")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PortAt(1) should panic on a host")
		}
	}()
	h0.PortAt(1)
}

func TestConnectValidation(t *testing.T) {
	n := MustNew(DefaultConfig(), fixedScheme(gbps100))
	a, b, c := n.NewHost(), n.NewHost(), n.NewHost()
	Connect(a.Port(), b.Port(), gbps100, prop)
	for _, fn := range []func(){
		func() { Connect(a.Port(), c.Port(), gbps100, prop) }, // a already wired
		func() { Connect(c.Port(), c.Port(), 0, prop) },       // zero rate
		func() { Connect(c.Port(), c.Port(), gbps100, -1) },   // negative delay
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

func TestTraceEventsEmitted(t *testing.T) {
	n, h0, h1 := directPair(t, DefaultConfig(), fixedScheme(gbps100), gbps100)
	var events int
	var kinds = map[TraceEventKind]int{}
	n.Trace = func(ev TraceEvent) {
		events++
		kinds[ev.Kind]++
		if ev.At > n.Eng.Now() {
			t.Error("trace event from the future")
		}
	}
	n.AddFlow(1, h0, h1, 10_000, 0)
	n.RunUntil(sim.Millisecond)
	if events == 0 || kinds[TraceTx] == 0 {
		t.Fatal("no tx trace events")
	}
	if kinds[TraceDrop] != 0 {
		t.Fatal("phantom drops")
	}
}

// mustPanic runs fn and fails unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// Flow ids are unique across the network, not per source host: two flows with
// one id toward one receiver would share a QP there.
func TestDuplicateFlowIDPanics(t *testing.T) {
	n, senders, recv, _ := chain(t, DefaultConfig(), fixedScheme(gbps100), 2, 1, gbps100)
	n.AddFlow(7, senders[0], recv, 1000, 0)
	mustPanic(t, "same id, same endpoints", func() { n.AddFlow(7, senders[0], recv, 1000, 0) })
	mustPanic(t, "same id from another source", func() { n.AddFlow(7, senders[1], recv, 1000, 0) })
	mustPanic(t, "same id in the reverse direction", func() { n.AddFlow(7, recv, senders[0], 1000, 0) })
	n.AddFlow(8, senders[1], recv, 1000, 0)
	n.RunUntil(sim.Millisecond)
	if !n.AllDone() || recv.ActiveInbound() != 0 || n.FCT.N() != 2 {
		t.Fatalf("done %v, live inbound %d, FCT records %d", n.AllDone(), recv.ActiveInbound(), n.FCT.N())
	}
}

func TestSetRouteRejectsUnknownDestination(t *testing.T) {
	n := MustNew(DefaultConfig(), fixedScheme(gbps100))
	h := n.NewHost()
	sw := n.NewSwitch(2)
	mustPanic(t, "negative window", func() { sw.SetRule(-1, []int{0}, nil) })
	mustPanic(t, "window past the last node", func() { sw.SetRule(sw.ID()+1, []int{0}, nil) })
	mustPanic(t, "window running past the last node", func() { sw.SetRule(h.ID(), []int{0, 1, 0}, nil) })
	mustPanic(t, "absurd window", func() { sw.SetRule(1<<30, []int{0}, nil) })
	mustPanic(t, "down port out of range", func() { sw.SetRule(h.ID(), []int{2}, nil) })
	mustPanic(t, "up port out of range", func() { sw.SetRule(h.ID(), []int{0}, []int{1, -1}) })
	sw.SetRule(h.ID(), []int{1}, nil)
	if port, err := sw.RouteTo(&packet.Packet{Dst: h.ID()}); err != nil || port != 1 {
		t.Fatalf("RouteTo = %d, %v", port, err)
	}
	// A node created after the first rule still gets a route from the next.
	late := n.NewHost()
	sw.SetRule(late.ID(), []int{0}, []int{1})
	if port, err := sw.RouteTo(&packet.Packet{Dst: late.ID()}); err != nil || port != 0 {
		t.Fatalf("RouteTo(late) = %d, %v", port, err)
	}
	if port, err := sw.RouteTo(&packet.Packet{Dst: h.ID()}); err != nil || port != 1 {
		t.Fatalf("RouteTo(h) over the one up port = %d, %v", port, err)
	}
}

// RouteTo reports a missing route as an error whether the switch has no rule
// or the destination is a known node outside a window with no up set, a
// switch, past the last node, or negative.
func TestRouteToUnroutedIsAnError(t *testing.T) {
	n := MustNew(DefaultConfig(), fixedScheme(gbps100))
	h0, h1 := n.NewHost(), n.NewHost()
	sw := n.NewSwitch(2)
	if _, err := sw.RouteTo(&packet.Packet{Dst: h1.ID()}); err == nil {
		t.Error("RouteTo on a switch without a rule: no error")
	}
	sw.SetRule(h1.ID(), []int{1}, nil)
	for _, dst := range []int32{h0.ID(), sw.ID(), sw.ID() + 1, 1 << 30, -1, -1 << 31} {
		if _, err := sw.RouteTo(&packet.Packet{Dst: dst}); err == nil {
			t.Errorf("RouteTo(%d): no error", dst)
		}
	}
}

// Frames that name no flow of the receiving host still panic, as they did
// when hosts looked flows up by id: a wrong QP, a QP past the table, another
// host's flow, and a flow that has not started.
func TestFramesForUnknownFlowsPanic(t *testing.T) {
	n, senders, recv, _ := chain(t, DefaultConfig(), fixedScheme(gbps100), 2, 1, gbps100)
	f := n.AddFlow(1, senders[0], recv, 100_000, 0)
	pending := n.AddFlow(2, senders[0], recv, 1000, sim.Second)
	n.RunUntil(5 * sim.Microsecond)
	data := func(id uint64, qp int32) *packet.Packet {
		return &packet.Packet{Type: packet.Data, FlowID: id, QP: qp, PayloadBytes: 100}
	}
	mustPanic(t, "data: QP of another flow", func() { recv.Receive(data(1, pending.qp), 0) })
	mustPanic(t, "data: QP past the table", func() { recv.Receive(data(1, 99), 0) })
	mustPanic(t, "data: negative QP", func() { recv.Receive(data(1, -1), 0) })
	mustPanic(t, "data: at a host that is not the destination", func() { senders[1].Receive(data(1, f.qp), 0) })
	mustPanic(t, "data: flow not started", func() { recv.Receive(data(2, pending.qp), 0) })
	mustPanic(t, "ack: at a host that is not the source", func() {
		senders[1].Receive(&packet.Packet{Type: packet.Ack, FlowID: 1, QP: f.qp}, 0)
	})
	mustPanic(t, "ack: unknown id", func() {
		senders[0].Receive(&packet.Packet{Type: packet.Ack, FlowID: 3, QP: f.qp}, 0)
	})
	// CNPs and credits for unknown flows are dropped, not fatal.
	senders[1].Receive(&packet.Packet{Type: packet.Cnp, FlowID: 1, QP: f.qp}, 0)
	senders[0].Receive(&packet.Packet{Type: packet.Credit, FlowID: 3, QP: 99, PayloadBytes: 10}, 0)

	// InboundFlow is nil until the QP starts at the receiver and stays set
	// after it completes.
	if recv.InboundFlow(data(2, pending.qp)) != nil {
		t.Error("InboundFlow before start")
	}
	if recv.InboundFlow(data(1, f.qp)) != f {
		t.Error("InboundFlow of a live QP")
	}
	n.RunUntil(sim.Millisecond)
	if !f.Done() || recv.InboundFlow(data(1, f.qp)) != f {
		t.Error("InboundFlow after completion")
	}
}

// AllDone counts completions instead of rescanning flows; the count must
// follow flows added mid-run and completions recorded on shards.
func TestAllDoneCountsCompletions(t *testing.T) {
	n, h0, h1 := directPair(t, DefaultConfig(), fixedScheme(gbps100), gbps100)
	if !n.AllDone() {
		t.Fatal("empty network not done")
	}
	n.AddFlow(1, h0, h1, 10_000, 0)
	n.AddFlow(2, h1, h0, 10_000, 50*sim.Microsecond)
	if n.AllDone() {
		t.Fatal("done before running")
	}
	n.RunUntil(40 * sim.Microsecond)
	if n.AllDone() {
		t.Fatal("done with flow 2 still pending")
	}
	if !n.RunToCompletion(sim.Second) {
		t.Fatal("RunToCompletion returned false")
	}
	n.AddFlow(3, h0, h1, 10_000, n.Eng.Now())
	if n.AllDone() {
		t.Fatal("done right after adding a flow")
	}
	if !n.RunToCompletion(sim.Second) || !n.AllDone() {
		t.Fatal("late flow did not complete")
	}

	sn, s0, s1 := shardedPair(t, 2)
	sn.AddFlow(1, s0, s1, 10_000, 0)
	sn.AddFlow(2, s1, s0, 10_000, 50*sim.Microsecond)
	sn.RunUntil(40 * sim.Microsecond)
	if sn.AllDone() {
		t.Fatal("sharded: done with flow 2 still pending")
	}
	if !sn.RunToCompletion(sim.Second) {
		t.Fatal("sharded: RunToCompletion returned false")
	}
}

func TestSwitchZeroPortsPanics(t *testing.T) {
	n := MustNew(DefaultConfig(), fixedScheme(gbps100))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.NewSwitch(0)
}
