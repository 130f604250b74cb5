package netsim

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Flow is one unidirectional RDMA-style data transfer (an RC Write over a
// queue pair). Sender-side state lives here; receiver-side state (rcvNxt,
// coalescing counters) does too, owned by the destination host.
type Flow struct {
	ID        uint64
	SrcHost   *Host
	DstHost   *Host
	SrcPort   uint16
	DstPort   uint16
	SizeBytes int64
	Start     sim.Time

	// IdealFCT is the standalone completion time used for slowdown; the
	// harness fills it from the topology before the run.
	IdealFCT sim.Time

	cc SenderCC

	// qp is the flow's slot in Network.flows; every frame of the flow carries
	// it (packet.Packet.QP) so the terminating host finds the flow by index.
	qp int32

	// Sender state.
	sndNxt     int64
	sndUna     int64
	nextSendAt sim.Time
	finished   bool
	retxEv     sim.Event
	retxSnap   int64 // sndUna when the retx timer was armed
	lastRate   int64 // last pacing rate reported to Network.Trace

	// Receiver state.
	credited int64 // bytes granted by receiver credits (credit schemes)

	rcvLive    bool // the QP exists at the receiver (set at start, never cleared)
	rcvNxt     int64
	rcvDone    bool
	lastNackAt sim.Time
	FinishedAt sim.Time // receiver-side completion (valid once rcvDone)
	// CnpLastAt is receiver-side DCQCN state: when the last CNP for this
	// flow was emitted (CNPs are paced to one per interval per flow).
	CnpLastAt sim.Time
}

// CC returns the flow's congestion-control state (harnesses sample rates).
func (f *Flow) CC() SenderCC { return f.cc }

// SndNxt returns the next byte sequence to transmit.
func (f *Flow) SndNxt() int64 { return f.sndNxt }

// SndUna returns the lowest unacknowledged byte.
func (f *Flow) SndUna() int64 { return f.sndUna }

// Inflight returns the bytes sent but not yet cumulatively acknowledged.
func (f *Flow) Inflight() int64 { return f.sndNxt - f.sndUna }

// Finished reports sender-side completion (all bytes acknowledged).
func (f *Flow) Finished() bool { return f.finished }

// Credited returns total bytes granted by receiver credits.
func (f *Flow) Credited() int64 { return f.credited }

// RcvNxt returns the receiver's next expected byte.
func (f *Flow) RcvNxt() int64 { return f.rcvNxt }

// Done reports receiver-side completion.
func (f *Flow) Done() bool { return f.rcvDone }

// Host is an end station with a single NIC port. It originates paced,
// window-limited data flows and generates ACKs/NACKs/CNPs for inbound ones.
type Host struct {
	id   int32
	net  *Network
	port Port // the NIC, in the host's own allocation (NewHost)

	// Execution context: the owning shard and its engine and pool (see
	// shard.go).
	eng   *sim.Engine
	pool  *packet.Pool
	shard *Shard

	// NIC scheduler state (see pickFlow). sending holds the started flows not
	// yet fully acknowledged, in start order; rr is how many of them sit
	// before the round-robin cursor (0..len inclusive); newest is the flow
	// started last, finished or not.
	sending []*Flow
	rr      int
	newest  *Flow

	activeInbound int // live inbound QPs: FNCC's N (Observation 4)

	// Telemetry counters (cumulative; sampled by internal/telemetry).
	cnpRx int64 // CNP frames received by this host's sender side
	retx  int64 // go-back-N rewinds (NACK- or timeout-triggered)

	pacerEv sim.Event
}

// CnpRx returns how many CNP frames this host has received.
func (h *Host) CnpRx() int64 { return h.cnpRx }

// RetxEvents returns how many go-back-N rewinds this host's flows took.
func (h *Host) RetxEvents() int64 { return h.retx }

// ID implements Node.
func (h *Host) ID() int32 { return h.id }

// NumPorts implements Node.
func (h *Host) NumPorts() int { return 1 }

// PortAt implements Node.
func (h *Host) PortAt(i int) *Port {
	if i != 0 {
		panic(fmt.Sprintf("netsim: host %d has a single port", h.id))
	}
	return &h.port
}

// Port returns the host's NIC port.
func (h *Host) Port() *Port { return &h.port }

// Net returns the owning network.
func (h *Host) Net() *Network { return h.net }

// Engine returns the event engine driving this host: the owning shard's. CC
// implementations must schedule host-side timers here, never on Net().Eng.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Pool returns the packet pool of the owning shard. Receiver CCs take INT
// stacks from it (packet.Pool.ReserveHops), never from Net().Pool.
func (h *Host) Pool() *packet.Pool { return h.pool }

// ActiveInbound returns the number of inbound flows whose QP is live: the
// count the FNCC receiver writes into ACKs as N.
func (h *Host) ActiveInbound() int { return h.activeInbound }

// InboundFlow returns the receiver-side flow state of the inbound QP that
// data frame d belongs to (nil if the QP is unknown here or has not started).
// Receiver CC implementations use it for per-flow pacing state such as
// DCQCN's CNP timer.
func (h *Host) InboundFlow(d *packet.Packet) *Flow {
	if f := h.net.flowOf(d); f != nil && f.DstHost == h && f.rcvLive {
		return f
	}
	return nil
}

// outboundFlow returns the flow this host originates that frame pkt (an ACK,
// NACK, CNP or credit) refers to, nil if there is none.
func (h *Host) outboundFlow(pkt *packet.Packet) *Flow {
	if f := h.net.flowOf(pkt); f != nil && f.SrcHost == h {
		return f
	}
	return nil
}

// Receive implements Node. A host terminates every frame type it accepts,
// so it is a packet sink: each arm releases pkt to the pool once the
// handlers (which may read but must not retain it) return.
func (h *Host) Receive(pkt *packet.Packet, inPort int) {
	switch pkt.Type {
	case packet.PfcPause:
		h.port.setPaused(true)
	case packet.PfcResume:
		h.port.setPaused(false)
	case packet.Data:
		h.handleData(pkt)
	case packet.Ack, packet.Nack:
		h.handleAck(pkt)
	case packet.Cnp:
		h.cnpRx++
		if f := h.outboundFlow(pkt); f != nil && !f.finished {
			if sink, ok := f.cc.(CnpSink); ok {
				sink.OnCnp(f, h.eng.Now())
			}
		}
	case packet.Credit:
		if f := h.outboundFlow(pkt); f != nil && !f.finished {
			f.credited += int64(pkt.PayloadBytes)
			if sink, ok := f.cc.(CreditSink); ok {
				sink.OnCredit(f, int64(pkt.PayloadBytes), h.eng.Now())
			}
			h.trySend()
		}
	default:
		panic(fmt.Sprintf("netsim: host %d received %v", h.id, pkt.Type))
	}
	h.pool.Put(pkt)
}

// handleData runs the receiver side: in-order delivery, go-back-N NACKs,
// cumulative ACK generation, CNP generation, and completion accounting.
func (h *Host) handleData(d *packet.Packet) {
	f := h.InboundFlow(d)
	if f == nil {
		panic(fmt.Sprintf("netsim: host %d: data for unknown flow %d", h.id, d.FlowID))
	}
	now := h.eng.Now()
	cfg := &h.net.Cfg

	// DCQCN: every ECN-marked arrival may elicit a CNP, paced by the
	// receiver CC if it is a CnpPacer.
	if d.ECN {
		if pacer, ok := h.net.Scheme.Receiver.(CnpPacer); ok && pacer.WantCnp(d, h, now) {
			cnp := h.pool.Get()
			cnp.Type, cnp.FlowID, cnp.QP = packet.Cnp, f.ID, f.qp
			cnp.Src, cnp.Dst = h.id, f.SrcHost.id
			cnp.SrcPort, cnp.DstPort = f.DstPort, f.SrcPort
			cnp.SendTime = now
			h.sendControl(cnp)
		}
	}

	switch {
	case d.Seq == f.rcvNxt:
		f.rcvNxt += int64(d.PayloadBytes)
		if f.rcvNxt >= f.SizeBytes && !f.rcvDone {
			f.rcvDone = true
			f.FinishedAt = now
			h.activeInbound--
			if pacer, ok := h.net.Scheme.Receiver.(CreditPacer); ok {
				pacer.OnInboundDone(f, h)
			}
			h.completeFlow(f, now)
		}
		h.sendAck(f, d, packet.Ack)
	case d.Seq > f.rcvNxt:
		// Gap: request go-back-N, rate limited per flow.
		if now-f.lastNackAt >= cfg.NackMinGap {
			f.lastNackAt = now
			h.sendAck(f, d, packet.Nack)
		}
	default:
		// Stale retransmission overlap; re-ACK cumulatively so the sender
		// advances.
		h.sendAck(f, d, packet.Ack)
	}
}

// sendAck emits a cumulative ACK or NACK for flow f, letting the scheme's
// receiver fill its fields (INT echo, N, fair rate).
func (h *Host) sendAck(f *Flow, data *packet.Packet, typ packet.Type) {
	ack := h.pool.Get()
	ack.Type, ack.FlowID, ack.QP = typ, f.ID, f.qp
	ack.Src, ack.Dst = h.id, f.SrcHost.id
	ack.SrcPort, ack.DstPort = f.DstPort, f.SrcPort
	ack.Seq = f.rcvNxt
	ack.SendTime = h.eng.Now()
	h.net.Scheme.Receiver.FillAck(ack, data, h)
	h.sendControl(ack)
}

// sendControl pushes a non-data frame straight into the NIC queue (ACKs are
// small and are not paced).
func (h *Host) sendControl(pkt *packet.Packet) {
	h.port.enqueue(pkt)
}

// SendCredit emits a receiver-driven transmission grant for inbound flow f
// (ExpressPass-style schemes; see netsim.CreditPacer).
func (h *Host) SendCredit(f *Flow, bytes int) {
	cr := h.pool.Get()
	cr.Type, cr.FlowID, cr.QP = packet.Credit, f.ID, f.qp
	cr.Src, cr.Dst = h.id, f.SrcHost.id
	cr.SrcPort, cr.DstPort = f.DstPort, f.SrcPort
	cr.PayloadBytes = bytes
	cr.SendTime = h.eng.Now()
	h.sendControl(cr)
}

// handleAck runs the sender side on ACK/NACK arrival.
func (h *Host) handleAck(a *packet.Packet) {
	f := h.outboundFlow(a)
	if f == nil {
		panic(fmt.Sprintf("netsim: host %d: ack for unknown flow %d", h.id, a.FlowID))
	}
	now := h.eng.Now()

	progressed := false
	if a.Seq > f.sndUna {
		f.sndUna = a.Seq
		progressed = true
	}
	if a.Type == packet.Nack {
		// Go-back-N rewind: resume from the receiver's cumulative point.
		if f.sndNxt > f.sndUna {
			f.sndNxt = f.sndUna
			h.retx++
		}
	}

	if !f.finished {
		// NACKs carry the same telemetry as ACKs (both traverse the return
		// path), so the RP consumes either.
		f.cc.OnAck(f, a, now)
	}

	if f.sndUna >= f.SizeBytes && !f.finished {
		f.finished = true
		h.retire(f)
		h.eng.Cancel(f.retxEv)
		f.retxEv = sim.Event{}
	} else if progressed {
		h.armRetx(f)
	}
	h.trySend()
}

// startFlow activates a pending flow at its start time. A full send list
// doubles into the shard's send-list chunks (Storage).
func (h *Host) startFlow(f *Flow) {
	if len(h.sending) == cap(h.sending) {
		h.sending = append(h.shard.mem.sends.Take(max(4, 2*cap(h.sending)))[:0], h.sending...)
	}
	h.sending = append(h.sending, f)
	h.newest = f
	h.trySend()
}

// retire drops a just-finished flow from the scheduler's list. finished is
// set in exactly one place (handleAck) and never cleared, so this is the only
// exit; a flow that has sent everything but is not fully acknowledged stays,
// because a NACK or a retransmission timeout can still rewind it.
func (h *Host) retire(f *Flow) {
	for i, g := range h.sending {
		if g == f {
			n := len(h.sending) - 1
			copy(h.sending[i:], h.sending[i+1:])
			h.sending[n] = nil
			h.sending = h.sending[:n]
			if i < h.rr {
				h.rr-- // one fewer flow before the cursor
			}
			return
		}
	}
}

// trySend is the NIC scheduler: if the transmitter is free, pick the next
// eligible flow round-robin and serialize exactly one packet. If every flow
// is only pacing-blocked, arm the pacer timer for the earliest deadline.
func (h *Host) trySend() {
	p := &h.port
	if p.busy || p.QueueFrames() > 0 {
		return // transmitter occupied; onIdle will call back
	}
	now := h.eng.Now()
	if f, seg, soonest := h.pickFlow(now); f != nil {
		h.sendSegment(f, seg, now)
	} else if soonest >= 0 {
		h.armPacer(soonest)
	}
}

// pickFlow is the scheduler's selection step. A PFC-paused port sends
// nothing. Otherwise, starting at the cursor, it takes the first unfinished
// flow that is eligible — has bytes, the segment fits the CC window, the
// pacing deadline has passed — and moves the cursor past it. With nothing
// eligible it returns nil and the earliest deadline among flows held back by
// pacing alone (-1: none).
//
// The visiting order is that of a cursor over every flow the host ever
// started, with finished ones skipped; rr counts the unfinished flows before
// that cursor, which is why it may equal len(sending) (every flow after the
// cursor has finished: a flow started next is visited first) and why sending
// the newest flow resets it to 0 instead (the full-history cursor wrapped: a
// flow started next is visited last).
func (h *Host) pickFlow(now sim.Time) (*Flow, int, sim.Time) {
	soonest := sim.Time(-1)
	if h.port.paused {
		return nil, 0, soonest
	}
	payload := h.net.Cfg.PayloadBytes()
	n := len(h.sending)
	for i := 0; i < n; i++ {
		idx := h.rr + i
		if idx >= n {
			idx -= n
		}
		f := h.sending[idx]
		remain := f.SizeBytes - f.sndNxt
		if remain <= 0 {
			continue // all sent, awaiting ACKs
		}
		seg := payload
		if remain < int64(seg) {
			seg = int(remain)
		}
		if f.Inflight()+int64(seg) > f.cc.WindowBytes() {
			continue // window-limited: an ACK will reopen
		}
		if now < f.nextSendAt {
			if soonest < 0 || f.nextSendAt < soonest {
				soonest = f.nextSendAt
			}
			continue
		}
		if f == h.newest {
			h.rr = 0
		} else {
			h.rr = idx + 1
		}
		return f, seg, soonest
	}
	return nil, 0, soonest
}

// sendSegment injects one data segment of flow f.
func (h *Host) sendSegment(f *Flow, payload int, now sim.Time) {
	pkt := h.pool.Get()
	pkt.Type, pkt.FlowID, pkt.QP = packet.Data, f.ID, f.qp
	pkt.Src, pkt.Dst = h.id, f.DstHost.id
	pkt.SrcPort, pkt.DstPort = f.SrcPort, f.DstPort
	pkt.Seq, pkt.PayloadBytes = f.sndNxt, payload
	pkt.SendTime = now
	f.sndNxt += int64(payload)

	// Pace the next packet at the CC rate, clamped to the line rate.
	rate := f.cc.RateBps()
	if lr := h.port.RateBps(); rate > lr {
		rate = lr
	}
	if rate < 1e6 {
		rate = 1e6 // never stall completely: 1 Mbps floor
	}
	if h.net.Trace != nil && rate != f.lastRate {
		f.lastRate = rate
		h.net.Trace(TraceEvent{
			Kind: TraceRateChange, At: now,
			Node: h.id, Port: 0,
			Type: pkt.Type, FlowID: f.ID, Seq: pkt.Seq, Size: pkt.SizeBytes(),
			Rate: rate,
		})
	}
	f.nextSendAt = now + sim.TxTime(pkt.SizeBytes(), rate)

	if !f.retxEv.Pending() {
		h.armRetx(f)
	}
	h.port.enqueue(pkt)
}

// hostPacerFired is the pacing wakeup callback (arg-passing schedule path:
// no closure per wakeup).
func hostPacerFired(v any) {
	h := v.(*Host)
	h.pacerEv = sim.Event{}
	h.trySend()
}

// armPacer (re)schedules the host's single pacing wakeup.
func (h *Host) armPacer(at sim.Time) {
	if h.pacerEv.Pending() && h.pacerEv.At() <= at {
		return // an earlier-or-equal wakeup is already pending
	}
	h.eng.Cancel(h.pacerEv)
	h.pacerEv = h.eng.ScheduleArg(at, hostPacerFired, h)
}

// flowRetxFired is the go-back-N backstop callback: rewind to the last
// cumulative ACK if nothing progressed for a full RTO.
func flowRetxFired(v any) {
	f := v.(*Flow)
	h := f.SrcHost
	f.retxEv = sim.Event{}
	if f.finished {
		return
	}
	if f.sndUna == f.retxSnap && f.Inflight() > 0 {
		// No progress for a full RTO with data outstanding: rewind.
		f.sndNxt = f.sndUna
		h.retx++
		h.trySend()
	}
	h.armRetx(f)
}

// armRetx (re)arms the go-back-N backstop timer for f.
func (h *Host) armRetx(f *Flow) {
	cfg := &h.net.Cfg
	if cfg.RetxTimeout <= 0 || f.finished {
		return
	}
	h.eng.Cancel(f.retxEv)
	f.retxSnap = f.sndUna
	f.retxEv = h.eng.AfterArg(cfg.RetxTimeout, flowRetxFired, f)
}
