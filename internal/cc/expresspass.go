package cc

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// ExpressPass (Cho et al.) is the paper's example of receiver-driven
// notification (§6): the receiver paces *credit* packets to each sender;
// every credit grants one data segment, so the data arrival rate at the
// receiver can never exceed the credit rate and last-hop queues stay
// near-empty by construction. The paper notes its practical weakness —
// "managing distinct timers on RDMA NICs to orchestrate credit pacing for
// each flow poses challenges" — which is visible here as one engine timer
// per active inbound flow.
//
// This is an extension baseline; it is not part of the paper's evaluation.
type ExpressPassConfig struct {
	// CreditRateFraction is the fraction of the access link granted via
	// credits (ExpressPass leaves headroom so data never queues; the
	// original uses ~84.7%% to absorb credit jitter).
	CreditRateFraction float64
	// SegmentBytes is the data payload granted per credit (one MTU
	// payload).
	SegmentBytes int
	// MaxOutstandingSegs bounds unspent credits per flow, so a stalled
	// sender does not accumulate an unbounded burst allowance.
	MaxOutstandingSegs int64
}

// DefaultExpressPassConfig returns the published pacing headroom.
func DefaultExpressPassConfig() ExpressPassConfig {
	return ExpressPassConfig{
		CreditRateFraction: 0.847,
		SegmentBytes:       1452,
		MaxOutstandingSegs: 8,
	}
}

// ExpressPassSender transmits only against received credits.
type ExpressPassSender struct {
	b int64
	f *netsim.Flow
}

// NewExpressPassSender builds the per-flow sender state, carved from the
// flow's network.
func NewExpressPassSender(f *netsim.Flow) *ExpressPassSender {
	s := netsim.Take[ExpressPassSender](f.SrcHost.Net())
	*s = ExpressPassSender{b: f.SrcHost.Port().RateBps(), f: f}
	return s
}

// WindowBytes implements netsim.SenderCC: the window is exactly the
// credited-but-unsent byte allowance.
func (e *ExpressPassSender) WindowBytes() int64 {
	w := e.f.Credited() - e.f.SndUna()
	if w < 0 {
		return 0
	}
	return w
}

// RateBps implements netsim.SenderCC: credit arrival does the pacing, so
// granted segments leave at line rate.
func (e *ExpressPassSender) RateBps() int64 { return e.b }

// OnAck implements netsim.SenderCC (credit schemes ignore ACK telemetry).
func (e *ExpressPassSender) OnAck(*netsim.Flow, *packet.Packet, sim.Time) {}

// OnCredit implements netsim.CreditSink (the grant is already folded into
// Flow.Credited by the host; nothing extra to track).
func (e *ExpressPassSender) OnCredit(*netsim.Flow, int64, sim.Time) {}

// expressPassReceiver runs one credit pacer per active inbound flow and
// splits the credited rate evenly across them.
type expressPassReceiver struct {
	cfg    ExpressPassConfig
	cancel map[uint64]func()
}

func newExpressPassReceiver(cfg ExpressPassConfig) *expressPassReceiver {
	return &expressPassReceiver{cfg: cfg, cancel: make(map[uint64]func())}
}

// FillAck implements netsim.ReceiverCC (plain cumulative ACKs).
func (r *expressPassReceiver) FillAck(ack, data *packet.Packet, _ *netsim.Host) {}

// OnInboundStart implements netsim.CreditPacer: arm this flow's credit
// timer. The inter-credit gap is recomputed every tick from the live
// active-inbound count, so shares stay fair as flows come and go.
func (r *expressPassReceiver) OnInboundStart(f *netsim.Flow, h *netsim.Host) {
	eng := h.Engine()
	seg := r.cfg.SegmentBytes
	wire := seg + packet.DataHeaderBytes
	creditRate := float64(h.Port().RateBps()) * r.cfg.CreditRateFraction

	var granted int64
	stopped := false
	var tick func()
	schedule := func() {
		n := h.ActiveInbound()
		if n < 1 {
			n = 1
		}
		gap := sim.TxTime(wire, int64(creditRate)) * sim.Time(n)
		eng.After(gap, tick)
	}
	tick = func() {
		if stopped || f.Done() {
			return
		}
		// Stop granting once the whole transfer is credited, and bound the
		// unspent allowance so a slow sender cannot hoard a burst.
		if granted < f.SizeBytes &&
			granted-f.SndUna() < r.cfg.MaxOutstandingSegs*int64(seg) {
			grant := int64(seg)
			if rem := f.SizeBytes - granted; rem < grant {
				grant = rem
			}
			granted += grant
			h.SendCredit(f, int(grant))
		}
		schedule()
	}
	r.cancel[f.ID] = func() { stopped = true }
	schedule()
}

// OnInboundDone implements netsim.CreditPacer.
func (r *expressPassReceiver) OnInboundDone(f *netsim.Flow, _ *netsim.Host) {
	if stop, ok := r.cancel[f.ID]; ok {
		stop()
		delete(r.cancel, f.ID)
	}
}

// NewExpressPassScheme assembles the receiver-driven extension baseline.
// Note the scheme holds per-network receiver state, so a fresh Scheme is
// required per Network (the registry constructs one per run).
func NewExpressPassScheme(cfg ExpressPassConfig) netsim.Scheme {
	return netsim.Scheme{
		Name: "ExpressPass",
		NewSenderCC: func(f *netsim.Flow) netsim.SenderCC {
			return NewExpressPassSender(f)
		},
		Receiver: newExpressPassReceiver(cfg),
	}
}
