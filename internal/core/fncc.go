// Package core implements FNCC — Fast Notification Congestion Control —
// the paper's contribution. FNCC extends HPCC with:
//
//  1. Fast notification (§3.1, Observations 1-3): switches do not stamp INT
//     on data packets; instead each switch keeps an All_INT_Table of
//     per-egress-port telemetry and inserts the *request-path* port's entry
//     into transiting ACKs (Algorithm 1). Because an ACK's input port is
//     the data's output port, indexing the table by the ACK's input port
//     yields exactly the queue the flow's data is building. The sender thus
//     observes congestion in sub-RTT time.
//
//  2. Last-Hop Congestion Speedup (LHCS, §3.2.2, Observation 4): the
//     receiver writes the number of concurrent inbound flows N (live RDMA
//     QPs) into every ACK; when the sender's hop detection finds the most
//     congested link is the last hop with U > α, it sets the reference
//     window directly to the fair share Wc = B·RTT·β/N (Algorithm 2).
//
// The Reaction Point reuses internal/cc's HPCC implementation of
// Algorithm 3 wholesale, embedding it and installing LHCS as its PreWindow
// hook — mirroring how the paper layers FNCC on HPCC.
package core

import (
	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Config parameterizes FNCC.
type Config struct {
	// HPCC carries the inherited window-algorithm constants (η, maxStage,
	// W_AI).
	HPCC cc.HPCCConfig
	// Alpha is the LHCS trigger threshold on U_max, "slightly larger than
	// one" (paper: 1.05).
	Alpha float64
	// Beta scales the fair window to drain the standing queue, "slightly
	// smaller than one" (paper: 0.9).
	Beta float64
	// EnableLHCS switches the last-hop speedup on (off = the paper's
	// "FNCC without LHCS" ablation of Fig 13c-d).
	EnableLHCS bool
	// TableUpdatePeriod is the All_INT_Table refresh interval. Zero means
	// the egress engine reads live port state — the limit the paper's
	// "updated periodically" approaches on a line-rate data plane.
	TableUpdatePeriod sim.Time
}

// DefaultConfig returns the paper's FNCC constants.
func DefaultConfig() Config {
	return Config{
		HPCC:              cc.DefaultHPCCConfig(),
		Alpha:             1.05,
		Beta:              0.9,
		EnableLHCS:        true,
		TableUpdatePeriod: 0,
	}
}

// Sender is FNCC's Reaction Point: HPCC's window machinery plus LHCS, one
// object per flow.
type Sender struct {
	cc.HPCC
	cfg Config
	// LHCSTriggers counts Algorithm 2 firings (observability for tests and
	// the Fig 13d analysis).
	LHCSTriggers int64
}

// NewSender builds the per-flow RP state, carved from the flow's network.
func NewSender(cfg Config, f *netsim.Flow) *Sender {
	s := netsim.Take[Sender](f.SrcHost.Net())
	s.HPCC.Init(cfg.HPCC, f)
	s.cfg = cfg
	if cfg.EnableLHCS {
		s.PreWindow = s
	}
	return s
}

// LHCSCount reports how many times the last-hop speedup fired (harness
// observability).
func (s *Sender) LHCSCount() int64 { return s.LHCSTriggers }

// UpdateWc is Algorithm 2 (and Algorithm 3's UpdateWc; it implements
// cc.WindowHook): if the most congested hop is the last hop and exceeds α,
// jump the reference window to the fair share B·RTT·β/N.
func (s *Sender) UpdateWc(h *cc.HPCC, f *netsim.Flow, ack *packet.Packet) {
	if ack.N == 0 {
		return // no concurrency information on this ACK
	}
	// Hop_Detection (lines 3-8): index of the maximum per-link utilization.
	uMax, hop := 0.0, -1
	for j, u := range h.ULink {
		if u > uMax {
			uMax = u
			hop = j
		}
	}
	if hop < 0 || hop != h.LastHopIndex || uMax <= s.cfg.Alpha {
		return
	}
	last, ok := ack.LastHop()
	if !ok {
		return
	}
	// Line 12: Wc <- B×RTT×β / N, with B the last-hop bandwidth from INT.
	fair := float64(last.B) / 8 * h.T.Seconds() * s.cfg.Beta / float64(ack.N)
	h.SetWc(fair)
	s.LHCSTriggers++
}

// Receiver is FNCC's ACK Generation Point: it writes the live inbound QP
// count N into every ACK (§3.2.3) and leaves INT insertion to the switches
// on the return path.
type Receiver struct{}

// FillAck implements netsim.ReceiverCC.
func (Receiver) FillAck(ack, data *packet.Packet, h *netsim.Host) {
	ack.Ordering = packet.ReceiverToSender
	n := h.ActiveInbound()
	if n < 1 {
		n = 1 // the acked flow itself is still live from the RP's view
	}
	if n > 0xffff {
		n = 0xffff // 16-bit field (§3.2.3: supports 64k connections)
	}
	ack.N = uint16(n)
}

// SwitchHook is FNCC's Congestion Point (Algorithm 1 / Fig 8): maintain the
// All_INT_Table and insert the request-path INT into ACKs at the egress
// engine. Data packets pass untouched — FNCC's data plane adds zero bytes
// to application traffic.
type SwitchHook struct {
	sw  *netsim.Switch
	cfg Config

	// table is the All_INT_Table: per-port {B, TS, txBytes, qLen}. Only
	// used when TableUpdatePeriod > 0; otherwise entries are read live.
	table []packet.IntHop
	// Inserted counts INT insertions into ACKs (observability).
	Inserted int64
}

// NewSwitchHook installs the CP state on one switch.
func NewSwitchHook(cfg Config, sw *netsim.Switch) *SwitchHook {
	h := &SwitchHook{sw: sw, cfg: cfg}
	if cfg.TableUpdatePeriod > 0 {
		h.table = make([]packet.IntHop, sw.NumPorts())
		h.refresh()
		sw.Engine().Ticker(cfg.TableUpdatePeriod, h.refresh)
	}
	return h
}

// refresh snapshots every port's INT into the table (the "Management
// module will update All_INT_Table periodically" path of §4.1).
func (h *SwitchHook) refresh() {
	for i := range h.table {
		if h.sw.PortAt(i).Peer() != nil {
			h.table[i] = h.sw.PortINT(i)
		}
	}
}

// lookup returns the INT for the given request-path egress port.
func (h *SwitchHook) lookup(port int) packet.IntHop {
	if h.table != nil {
		return h.table[port]
	}
	return h.sw.PortINT(port)
}

// OnEnqueue implements netsim.SwitchHook.
func (*SwitchHook) OnEnqueue(*netsim.Switch, *packet.Packet, int) {}

// OnDequeue implements netsim.SwitchHook: the egress engine of
// Algorithm 1 (lines 6-10). For an ACK, look up All_INT_Table with the
// ACK's recorded input port — by Observation 3 that port is the egress of
// the corresponding request-path data — and insert the record.
func (h *SwitchHook) OnDequeue(sw *netsim.Switch, pkt *packet.Packet, outPort int) {
	if pkt.Type != packet.Ack && pkt.Type != packet.Nack {
		return
	}
	hop := h.lookup(int(pkt.InputPort))
	sw.Pool().ReserveHops(pkt, sw.Net().PathHops())
	pkt.AddHop(hop)
	h.Inserted++
}

// NewScheme assembles the complete FNCC mechanism.
func NewScheme(cfg Config) netsim.Scheme {
	return netsim.Scheme{
		Name: "FNCC",
		NewSenderCC: func(f *netsim.Flow) netsim.SenderCC {
			return NewSender(cfg, f)
		},
		Receiver: Receiver{},
		NewSwitchHook: func(sw *netsim.Switch) netsim.SwitchHook {
			return NewSwitchHook(cfg, sw)
		},
	}
}
