// Package cc implements the baseline congestion-control schemes the paper
// compares against: HPCC (Li et al., SIGCOMM'19), DCQCN (Zhu et al.,
// SIGCOMM'15) and RoCC (Taheri et al., CoNEXT'20). Each scheme provides the
// three plug points netsim defines: sender (RP), receiver (ACK generation)
// and switch hook (CP).
//
// HPCC deserves special care: FNCC (internal/core) is an extension of it and
// reuses this implementation of the paper's Algorithm 3 verbatim, changing
// only where INT is stamped and adding the last-hop speedup.
package cc

import (
	"fmt"
	"slices"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// HPCCConfig holds the window-algorithm constants of Algorithm 3.
type HPCCConfig struct {
	// Eta is the target utilization η, close to 1 (paper: 0.95).
	Eta float64
	// MaxStage bounds consecutive additive-increase rounds before a
	// multiplicative adjustment (paper: 5).
	MaxStage int
	// WaiBytes is the additive-increase step W_AI, "kept very small".
	WaiBytes float64
	// MinWndBytes floors the window (one MTU keeps flows alive).
	MinWndBytes float64
}

// DefaultHPCCConfig returns the constants used throughout the evaluation.
func DefaultHPCCConfig() HPCCConfig {
	return HPCCConfig{
		Eta:         0.95,
		MaxStage:    5,
		WaiBytes:    800,
		MinWndBytes: 1518,
	}
}

// WindowHook is Algorithm 3's UpdateWc (line 30), run before the window
// computation on every ACK carrying INT. FNCC's sender installs itself
// (internal/core): one interface value per flow, where a method value would be
// one more heap object per flow.
type WindowHook interface {
	UpdateWc(h *HPCC, f *netsim.Flow, ack *packet.Packet)
}

// HPCC is the per-flow Reaction Point state of Algorithm 3. The same struct
// serves FNCC, which embeds it, installs PreWindow and feeds it ACKs whose INT
// was stamped on the return path.
type HPCC struct {
	Cfg HPCCConfig

	// T is the base RTT (the algorithm's T), B the NIC line rate.
	T sim.Time
	B int64

	// W and Wc are the working and reference windows in bytes (per-ACK /
	// per-RTT scheme of Equations 5-6).
	W, Wc float64
	// U is the EWMA-filtered max link utilization (line 13).
	U float64
	// ULink holds the latest per-link u' values, indexed by distance from
	// the sender (Hop_Detection input; Algorithm 3 line 9 stores U_i). Like
	// prev, it has room for the fabric's longest path from admission on.
	ULink []float64
	// LastHopIndex is len(ULink)-1 after an ACK with INT; -1 before.
	LastHopIndex int

	incStage      int
	lastUpdateSeq int64
	maxWnd        float64

	// prev is L: the previous ACK's INT, normalized to distance-from-sender
	// order, plus the path signature to detect reroutes.
	prev     []packet.IntHop
	prevPath uint16
	hasPrev  bool

	// PreWindow, when non-nil, runs before the window computation on every
	// ACK carrying INT — FNCC's UpdateWc (Algorithm 3 line 30) hooks here.
	PreWindow WindowHook

	rate int64
}

// NewHPCC builds RP state for one flow, carved from the flow's network.
func NewHPCC(cfg HPCCConfig, f *netsim.Flow) *HPCC {
	h := netsim.Take[HPCC](f.SrcHost.Net())
	h.Init(cfg, f)
	return h
}

// Init sets h up as flow f's RP state: the window starts at one
// bandwidth-delay product plus an MTU so a new flow can fill the pipe
// immediately (HPCC §4.3: flows start at line rate), and the INT history
// (prev, ULink) gets room for the fabric's longest path, carved from the
// network's chunks — so call it at admission only (netsim.Take's rule).
func (h *HPCC) Init(cfg HPCCConfig, f *netsim.Flow) {
	net := f.SrcHost.Net()
	b := f.SrcHost.Port().RateBps()
	t := net.Cfg.BaseRTT
	if b <= 0 || t <= 0 {
		panic(fmt.Sprintf("cc: flow %d missing rate/RTT (B=%d T=%v)", f.ID, b, t))
	}
	bdp := float64(float64(b) / 8 * t.Seconds())
	room := net.PathHops()
	*h = HPCC{
		Cfg:          cfg,
		T:            t,
		B:            b,
		W:            bdp + float64(cfg.MinWndBytes),
		ULink:        netsim.TakeSlice[float64](net, room)[:0],
		LastHopIndex: -1,
		maxWnd:       bdp + float64(cfg.MinWndBytes),
		prev:         netsim.TakeSlice[packet.IntHop](net, room)[:0],
		rate:         b,
	}
	h.Wc = h.W
}

// WindowBytes implements netsim.SenderCC.
func (h *HPCC) WindowBytes() int64 { return int64(h.W) }

// RateBps implements netsim.SenderCC: R = W/T (Algorithm 3 line 47).
func (h *HPCC) RateBps() int64 { return h.rate }

// OnAck implements netsim.SenderCC: the NewACK procedure (lines 41-48).
func (h *HPCC) OnAck(f *netsim.Flow, ack *packet.Packet, now sim.Time) {
	if ack.NHop() == 0 {
		return // no telemetry (e.g. duplicate ACK before first INT)
	}
	u, ok := h.measureInflight(ack)
	if !ok {
		return // first sample on this path only primes L
	}
	if h.PreWindow != nil {
		h.PreWindow.UpdateWc(h, f, ack)
	}
	if ack.Seq > h.lastUpdateSeq {
		h.W = h.computeWind(u, true)
		h.lastUpdateSeq = f.SndNxt()
	} else {
		h.W = h.computeWind(u, false)
	}
	h.rate = int64(h.W * 8 / h.T.Seconds())
}

// measureInflight is the MeasureInFlight function (lines 4-15): per-link
// normalized in-flight bytes from consecutive INT samples, EWMA-filtered.
// It returns (U, true) when a window update is possible, or (0, false) while
// priming the previous-sample state.
func (h *HPCC) measureInflight(ack *packet.Packet) (float64, bool) {
	n := ack.NHop()
	// Reroute or first ACK: reset L and prime.
	if !h.hasPrev || len(h.prev) != n || h.prevPath != ack.PathID() {
		h.storePrev(ack)
		return 0, false
	}

	if len(h.ULink) != n {
		// A new path length starts from fresh estimates.
		h.ULink = slices.Grow(h.ULink[:0], n)[:n]
		clear(h.ULink)
	}
	u := 0.0
	tau := sim.Time(0)
	for i := 0; i < n; i++ {
		cur := ack.HopAtDistanceFromSender(i)
		prev := h.prev[i]
		dt := cur.TS - prev.TS
		if dt <= 0 {
			// Same-instant samples (e.g. two ACKs stamped in one event):
			// keep the previous estimate for this link.
			continue
		}
		txRate := float64(cur.TxBytes-prev.TxBytes) * 8 / dt.Seconds() // bps
		qmin := float64(min64(int64(cur.QLen), int64(prev.QLen)))
		uLink := qmin*8/(float64(cur.B)*h.T.Seconds()) + txRate/float64(cur.B)
		h.ULink[i] = uLink
		if uLink > u {
			u = uLink
			tau = dt
		}
	}
	h.LastHopIndex = n - 1
	h.storePrev(ack)
	if tau > h.T {
		tau = h.T
	}
	if tau <= 0 {
		return h.U, true // all links skipped; reuse the filtered estimate
	}
	frac := float64(tau) / float64(h.T)
	h.U = float64((1-frac)*h.U) + float64(frac*u)
	return h.U, true
}

// computeWind is ComputeWind (lines 29-40) minus the UpdateWc hook, which
// ran earlier: multiplicative adjustment when overloaded or out of AI
// budget, additive increase otherwise.
func (h *HPCC) computeWind(u float64, updateWc bool) float64 {
	var w float64
	if u >= h.Cfg.Eta || h.incStage >= h.Cfg.MaxStage {
		w = h.Wc/(u/h.Cfg.Eta) + h.Cfg.WaiBytes
		if updateWc {
			h.incStage = 0
			h.Wc = h.clamp(w)
		}
	} else {
		w = h.Wc + h.Cfg.WaiBytes
		if updateWc {
			h.incStage++
			h.Wc = h.clamp(w)
		}
	}
	return h.clamp(w)
}

func (h *HPCC) clamp(w float64) float64 {
	if w < h.Cfg.MinWndBytes {
		return h.Cfg.MinWndBytes
	}
	if w > h.maxWnd {
		return h.maxWnd
	}
	return w
}

// SetWc force-sets the reference window (FNCC's last-hop speedup does this)
// and refreshes the pacing rate.
func (h *HPCC) SetWc(w float64) {
	h.Wc = h.clamp(w)
	if h.W > h.Wc {
		h.W = h.Wc
	}
	h.rate = int64(h.W * 8 / h.T.Seconds())
}

func (h *HPCC) storePrev(ack *packet.Packet) {
	n := ack.NHop()
	if cap(h.prev) < n {
		h.prev = make([]packet.IntHop, n)
	}
	h.prev = h.prev[:n]
	for i := 0; i < n; i++ {
		h.prev[i] = ack.HopAtDistanceFromSender(i)
	}
	h.prevPath = ack.PathID()
	h.hasPrev = true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// hpccReceiver echoes the data packet's accumulated INT into the ACK
// (HPCC's ACK generation: "the target end-host generates ACK containing all
// INTs and sends them back").
type hpccReceiver struct{}

// FillAck implements netsim.ReceiverCC.
func (hpccReceiver) FillAck(ack, data *packet.Packet, h *netsim.Host) {
	ack.Ordering = packet.SenderToReceiver
	h.Pool().ReserveHops(ack, h.Net().PathHops())
	ack.Hops = append(ack.Hops[:0], data.Hops...)
}

// hpccHook stamps egress INT on every data packet at dequeue — the CP
// behaviour of HPCC's Fig 4a ("insert INT into packet" at each switch).
type hpccHook struct{}

// OnEnqueue implements netsim.SwitchHook.
func (hpccHook) OnEnqueue(*netsim.Switch, *packet.Packet, int) {}

// OnDequeue implements netsim.SwitchHook.
func (hpccHook) OnDequeue(sw *netsim.Switch, pkt *packet.Packet, outPort int) {
	if pkt.Type == packet.Data {
		sw.Pool().ReserveHops(pkt, sw.Net().PathHops())
		pkt.AddHop(sw.PortINT(outPort))
	}
}

// NewHPCCScheme assembles the complete HPCC baseline.
func NewHPCCScheme(cfg HPCCConfig) netsim.Scheme {
	return netsim.Scheme{
		Name: "HPCC",
		NewSenderCC: func(f *netsim.Flow) netsim.SenderCC {
			return NewHPCC(cfg, f)
		},
		Receiver:      hpccReceiver{},
		NewSwitchHook: func(*netsim.Switch) netsim.SwitchHook { return hpccHook{} },
	}
}
