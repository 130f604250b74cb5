package netsim

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// The tests in this file pin the property the live-flow NIC scheduler rests
// on: which flow the host sends next depends only on the flows' own state
// and on a cursor over every flow the host ever started — never on whether
// the finished ones are still stored. The reference model below keeps the
// full history and the scan the host used to run; the production host must
// pick the same flow, the same segment and the same pacing deadline at every
// step of a script.

// refNIC is the reference model: every flow ever started, in start order,
// and a cursor that is an index into that full list.
type refNIC struct {
	sending []*Flow
	rr      int
}

func (r *refNIC) pick(h *Host, now sim.Time) (*Flow, int, sim.Time) {
	payload := h.net.Cfg.PayloadBytes()
	soonest := sim.Time(-1)
	n := len(r.sending)
	for i := 0; i < n; i++ {
		idx := (r.rr + i) % n
		f := r.sending[idx]
		if f.finished || f.sndNxt >= f.SizeBytes || h.port.paused {
			continue
		}
		seg := int64(payload)
		if remain := f.SizeBytes - f.sndNxt; remain < seg {
			seg = remain
		}
		if f.Inflight()+seg > f.cc.WindowBytes() {
			continue
		}
		if now < f.nextSendAt {
			if soonest < 0 || f.nextSendAt < soonest {
				soonest = f.nextSendAt
			}
			continue
		}
		r.rr = (idx + 1) % n
		return f, int(seg), soonest
	}
	return nil, 0, soonest
}

// nicHarness drives one production host and the reference model over the
// same Flow objects. The host's transmitter is held busy, so the trySend
// calls inside startFlow and handleAck return at once and the script alone
// decides when a pick happens; everything else — flow activation, ACK, NACK
// and timeout handling, PFC frames — runs the production code.
type nicHarness struct {
	t       *testing.T
	n       *Network
	h, peer *Host
	ref     refNIC
	started []*Flow
	maxSent map[*Flow]int64 // highest sndNxt reached: what a receiver may have seen
	now     sim.Time
	picks   []uint64 // flow ids in the order sent
}

func newNICHarness(t *testing.T) *nicHarness {
	sch := Scheme{
		Name:        "sched",
		NewSenderCC: func(*Flow) SenderCC { return &fixedCC{rate: gbps100, window: 1 << 40} },
		Receiver:    echoReceiver{},
	}
	n, h, peer := directPair(t, DefaultConfig(), sch, gbps100)
	h.port.busy = true
	return &nicHarness{t: t, n: n, h: h, peer: peer, maxSent: map[*Flow]int64{}}
}

func (x *nicHarness) payload() int64 { return int64(x.n.Cfg.PayloadBytes()) }

// start adds a flow of the given size and activates it now.
func (x *nicHarness) start(size int64) *Flow {
	f := x.n.AddFlow(uint64(len(x.started)+1), x.h, x.peer, size, sim.Second)
	flowStart(f) // what the engine would call at f.Start
	x.ref.sending = append(x.ref.sending, f)
	x.started = append(x.started, f)
	return f
}

// send runs one scheduler pick on both sides, requires agreement, and applies
// the send: the flow advances by the segment and is paced gap into the future.
func (x *nicHarness) send(gap sim.Time) *Flow {
	x.t.Helper()
	wf, wseg, wsoon := x.ref.pick(x.h, x.now)
	gf, gseg, gsoon := x.h.pickFlow(x.now)
	if gf != wf || gseg != wseg || gsoon != wsoon {
		x.t.Fatalf("pick #%d at %v: host (%s, %d B, pacer %v), reference (%s, %d B, pacer %v); sent so far %v",
			len(x.picks), x.now, flowName(gf), gseg, gsoon, flowName(wf), wseg, wsoon, x.picks)
	}
	if gf == nil {
		return nil
	}
	gf.sndNxt += int64(gseg)
	if gf.sndNxt > x.maxSent[gf] {
		x.maxSent[gf] = gf.sndNxt
	}
	gf.nextSendAt = x.now + gap
	x.picks = append(x.picks, gf.ID)
	return gf
}

func flowName(f *Flow) string {
	if f == nil {
		return "none"
	}
	return fmt.Sprintf("flow %d", f.ID)
}

// ack delivers a cumulative ACK (or NACK) for seq to the sender.
func (x *nicHarness) ack(f *Flow, typ packet.Type, seq int64) {
	x.h.Receive(&packet.Packet{
		Type: typ, FlowID: f.ID, QP: f.qp,
		Src: x.peer.id, Dst: x.h.id, Seq: seq,
	}, 0)
}

// ackAll acknowledges everything the receiver can have seen of f, which
// finishes the flow if that is all of it.
func (x *nicHarness) ackAll(f *Flow) { x.ack(f, packet.Ack, x.maxSent[f]) }

func (x *nicHarness) pause(on bool) {
	typ := packet.PfcResume
	if on {
		typ = packet.PfcPause
	}
	x.h.Receive(&packet.Packet{Type: typ}, 0)
}

// check verifies the cursor invariant: the host's list is the reference list
// minus finished flows, and its cursor counts the unfinished flows before
// the reference cursor.
func (x *nicHarness) check() {
	x.t.Helper()
	var live []*Flow
	before := 0
	for i, f := range x.ref.sending {
		if f.finished {
			continue
		}
		live = append(live, f)
		if i < x.ref.rr {
			before++
		}
	}
	if len(live) != len(x.h.sending) {
		x.t.Fatalf("host keeps %d flows, %d are unfinished", len(x.h.sending), len(live))
	}
	for i := range live {
		if live[i] != x.h.sending[i] {
			x.t.Fatalf("host list position %d holds %s, want %s", i, flowName(x.h.sending[i]), flowName(live[i]))
		}
	}
	if x.h.rr != before {
		x.t.Fatalf("host cursor %d, want %d (reference cursor %d of %d)", x.h.rr, before, x.ref.rr, len(x.ref.sending))
	}
}

// run interprets a byte script. Every operation is total, so any byte string
// is a valid script. Start and PFC operations still read a class bit and
// ignore it (a port has one lane), so every seed and corpus entry decodes to
// the same operation sequence.
func (x *nicHarness) run(script []byte) {
	x.t.Helper()
	next := func() uint8 {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	flow := func() *Flow {
		b := next()
		if len(x.started) == 0 {
			return nil
		}
		return x.started[int(b)%len(x.started)]
	}
	for len(script) > 0 {
		switch next() % 8 {
		case 0: // start: 1–4 segments with a short tail (bit 4: class, ignored)
			if b := next(); len(x.started) < 64 {
				x.start(int64(1+b%4)*x.payload() - int64(b%7))
			}
		case 1: // send, then pace the flow 0–3 ticks ahead
			x.send(sim.Time(next() % 4))
		case 2: // cumulative ACK of all that was sent: finishes a fully sent flow
			if f := flow(); f != nil {
				x.ackAll(f)
			}
		case 3: // NACK: go-back-N to a point at or after the last ACK
			b := next()
			if f := flow(); f != nil {
				seq := f.sndUna + int64(b%3)*x.payload()
				if seq > x.maxSent[f] {
					seq = x.maxSent[f]
				}
				x.ack(f, packet.Nack, seq)
			}
		case 4: // time passes
			x.now += sim.Time(next() % 8)
		case 5: // PFC pause or resume (bit 0: class, ignored)
			x.pause(next()&2 != 0)
		case 6: // the CC window closes or reopens
			b := next()
			if f := flow(); f != nil {
				f.cc.(*fixedCC).window = int64(b%2) << 40
			}
		case 7: // retransmission timeout
			if f := flow(); f != nil {
				flowRetxFired(f)
			}
		}
		x.check()
	}
	// Drain: lift every block and send until nothing is left, acknowledging
	// flows along the way, then acknowledge the rest: the list must empty.
	x.pause(false)
	x.now += 8
	for _, f := range x.started {
		f.cc.(*fixedCC).window = 1 << 40
	}
	for x.send(0) != nil {
		x.check()
		x.ackAll(x.started[len(x.picks)%len(x.started)])
		x.check()
	}
	for _, f := range x.started {
		x.ackAll(f)
		x.check()
		if !f.finished {
			x.t.Fatalf("%s did not finish: sent %d of %d", flowName(f), f.sndNxt, f.SizeBytes)
		}
	}
	if len(x.h.sending) != 0 {
		x.t.Fatalf("%d flows left in the list after all finished", len(x.h.sending))
	}
}

// nicSeeds are scripts for the cases the cursor invariant was written for.
var nicSeeds = [][]byte{
	{},
	// Two-segment flows A, B, C; send all three (C is the newest: the cursor
	// wraps to 0), start D: it is visited last.
	{0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0},
	// A, B of three segments and C of one; send A B C, finish C, send A B
	// (every flow after the cursor is gone: rr == len), start D: it is
	// visited first.
	{0, 2, 0, 2, 0, 0, 1, 0, 1, 0, 1, 0, 2, 2, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0},
	// Retire the flow the cursor points at, then one before it.
	{0, 0, 0, 0, 0, 1, 1, 0, 6, 0, 1, 1, 0, 2, 0, 6, 1, 1, 1, 0, 2, 1, 1, 0},
	// A fully sent flow is NACKed back, resent, times out, and finishes.
	{0, 1, 1, 0, 1, 0, 3, 1, 0, 1, 0, 7, 0, 1, 0, 2, 0, 1, 0},
	// Pacing holds one flow and PFC the port; time and a RESUME release
	// them.
	{0, 3, 0, 19, 1, 3, 5, 3, 1, 0, 4, 2, 1, 0, 5, 1, 4, 7, 1, 0, 1, 0},
}

func TestNICSchedulerSeeds(t *testing.T) {
	for _, s := range nicSeeds {
		newNICHarness(t).run(s)
	}
}

// TestNICSchedulerRandomScripts runs pseudo-random scripts so the property is
// exercised by plain `go test`, not only under -fuzz.
func TestNICSchedulerRandomScripts(t *testing.T) {
	rng := sim.NewRNG(15)
	for i := 0; i < 300; i++ {
		script := make([]byte, 16+rng.Intn(400))
		for j := range script {
			script[j] = byte(rng.Intn(256))
		}
		newNICHarness(t).run(script)
	}
}

// The two cursor cases, on concrete orders rather than against the model.
func TestNICSchedulerNewFlowAfterNewestSentGoesLast(t *testing.T) {
	x := newNICHarness(t)
	seg := x.payload()
	a, b := x.start(2*seg), x.start(2*seg)
	x.send(0) // a
	x.send(0) // b, the newest: the cursor wraps
	c := x.start(2 * seg)
	for _, want := range []*Flow{a, b, c} {
		if got := x.send(0); got != want {
			t.Fatalf("sent %s, want %s", flowName(got), flowName(want))
		}
	}
}

func TestNICSchedulerNewFlowAfterOlderSentGoesFirst(t *testing.T) {
	x := newNICHarness(t)
	seg := x.payload()
	a, b, c := x.start(3*seg), x.start(3*seg), x.start(seg)
	x.send(0) // a
	x.send(0) // b
	x.send(0) // c
	x.ackAll(c)
	x.send(0) // a
	x.send(0) // b: the last unfinished flow but not the newest, so no wrap
	if !c.finished || x.h.rr != len(x.h.sending) {
		t.Fatalf("c finished = %v, cursor %d of %d", c.finished, x.h.rr, len(x.h.sending))
	}
	d := x.start(seg)
	for _, want := range []*Flow{d, a, b} {
		if got := x.send(0); got != want {
			t.Fatalf("sent %s, want %s", flowName(got), flowName(want))
		}
	}
}

func TestNICSchedulerRetireAtAndBeforeCursor(t *testing.T) {
	x := newNICHarness(t)
	seg := x.payload()
	a, b, c := x.start(seg), x.start(seg), x.start(2*seg)
	x.send(0) // a: the cursor points at b
	b.cc.(*fixedCC).window = 0
	x.send(0) // c (b is window-blocked): c is the newest, the cursor wraps to a
	x.ackAll(a)
	if !a.finished || x.h.rr != 0 {
		t.Fatalf("retiring the flow at the cursor: finished = %v, cursor %d", a.finished, x.h.rr)
	}
	b.cc.(*fixedCC).window = 1 << 40
	if got := x.send(0); got != b {
		t.Fatalf("sent %s, want flow b", flowName(got))
	}
	// The cursor is 1 (before c); retiring b, which is before it, moves it to 0.
	x.ackAll(b)
	if x.h.rr != 0 || len(x.h.sending) != 1 {
		t.Fatalf("retiring a flow before the cursor: cursor %d, %d flows", x.h.rr, len(x.h.sending))
	}
	if got := x.send(0); got != c {
		t.Fatalf("sent %s, want flow c", flowName(got))
	}
}

// A flow that has sent everything stays in the list until it is fully
// acknowledged: a NACK must be able to rewind it.
func TestNICSchedulerFullySentFlowStaysUntilAcked(t *testing.T) {
	x := newNICHarness(t)
	f := x.start(2 * x.payload())
	x.send(0)
	x.send(0)
	if x.send(0) != nil || len(x.h.sending) != 1 {
		t.Fatalf("fully sent flow: %d in the list", len(x.h.sending))
	}
	x.ack(f, packet.Nack, x.payload())
	if got := x.send(0); got != f || f.sndNxt != 2*x.payload() {
		t.Fatalf("after the NACK sent %s, sndNxt %d", flowName(got), f.sndNxt)
	}
	x.ackAll(f)
	if len(x.h.sending) != 0 || x.h.rr != 0 {
		t.Fatalf("after the last ACK: %d in the list, cursor %d", len(x.h.sending), x.h.rr)
	}
}

// FuzzNICSchedulerOrder runs random scripts of start / send / ACK / NACK /
// clock / PFC / window / timeout operations against the full-history
// reference scheduler and requires, at every send, the same flow, segment
// size and pacer deadline, and after every operation the cursor invariant.
func FuzzNICSchedulerOrder(f *testing.F) {
	for _, s := range nicSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		newNICHarness(t).run(script)
	})
}
