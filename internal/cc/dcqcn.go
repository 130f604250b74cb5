package cc

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// DCQCNConfig holds the Zhu et al. parameters, defaulted to the values the
// paper calls "the default values recommended in research [25, 31]".
type DCQCNConfig struct {
	// G is the EWMA gain g for alpha (1/256).
	G float64
	// AlphaTimer is the alpha-recovery period with no CNPs (55 us).
	AlphaTimer sim.Time
	// IncTimer is the rate-increase timer period (55 us).
	IncTimer sim.Time
	// ByteCounter triggers a rate-increase event every this many sent bytes
	// (10 MB).
	ByteCounter int64
	// F is the fast-recovery stage count (5).
	F int
	// RateAIBps is the additive-increase step (40 Mbps).
	RateAIBps int64
	// RateHAIBps is the hyper-increase step (400 Mbps).
	RateHAIBps int64
	// MinRateBps floors the sending rate.
	MinRateBps int64
	// CnpInterval is the receiver-side minimum CNP spacing per flow (50 us).
	CnpInterval sim.Time
	// KminBytes/KmaxBytes/Pmax parameterize WRED ECN marking at switches,
	// at 100 Gbps reference; they scale linearly with port rate.
	KminBytes int64
	KmaxBytes int64
	Pmax      float64
}

// DefaultDCQCNConfig returns the published defaults (marking thresholds per
// the HPCC evaluation's 100 Gbps settings).
func DefaultDCQCNConfig() DCQCNConfig {
	return DCQCNConfig{
		G:           1.0 / 256,
		AlphaTimer:  55 * sim.Microsecond,
		IncTimer:    55 * sim.Microsecond,
		ByteCounter: 10 << 20,
		F:           5,
		RateAIBps:   40e6,
		RateHAIBps:  400e6,
		MinRateBps:  10e6,
		CnpInterval: 50 * sim.Microsecond,
		KminBytes:   100 << 10,
		KmaxBytes:   400 << 10,
		Pmax:        0.2,
	}
}

// DCQCN is the per-flow Reaction Point: rate-based MIMD with alpha state.
// It is deliberately sluggish at 100G+ — that sluggishness (one RTT to get
// the first CNP, 55 us timers, 40 Mbps additive steps) is exactly what
// Figs 1, 3, 9, 14 and 15 of the paper exhibit.
type DCQCN struct {
	cfg  DCQCNConfig
	eng  *sim.Engine
	flow *netsim.Flow
	b    int64 // line rate

	rc, rt     float64 // current and target rates, bps
	alpha      float64
	byteStage  int
	timeStage  int
	acked      int64 // bytes acknowledged since the last byte-counter event
	lastAckSeq int64

	alphaEv sim.Event
	incEv   sim.Event
	done    bool
}

// NewDCQCN builds RP state for one flow, starting at line rate, carved from
// the flow's network.
func NewDCQCN(cfg DCQCNConfig, f *netsim.Flow) *DCQCN {
	d := netsim.Take[DCQCN](f.SrcHost.Net())
	*d = DCQCN{
		cfg:   cfg,
		eng:   f.SrcHost.Engine(),
		flow:  f,
		b:     f.SrcHost.Port().RateBps(),
		alpha: 1,
	}
	d.rc = float64(d.b)
	d.rt = d.rc
	return d
}

// WindowBytes implements netsim.SenderCC: DCQCN is purely rate-based.
func (d *DCQCN) WindowBytes() int64 { return 1 << 40 }

// RateBps implements netsim.SenderCC.
func (d *DCQCN) RateBps() int64 { return int64(d.rc) }

// dcqcnTelemetryVars is returned by TelemetryVars (stable, never mutated).
var dcqcnTelemetryVars = []string{"alpha", "target_rate_bps"}

// TelemetryVars implements netsim.Observable.
func (d *DCQCN) TelemetryVars() []string { return dcqcnTelemetryVars }

// TelemetrySample implements netsim.Observable: the RP's alpha (congestion
// estimate) and target rate rt, the two internals Fig 1's analysis turns on.
func (d *DCQCN) TelemetrySample(out []float64) {
	out[0] = d.alpha
	out[1] = d.rt
}

// OnAck implements netsim.SenderCC: drives the byte counter. The counter
// tracks transmitted bytes; cumulative-ACK progress is the RP's proxy for
// it (identical in steady state).
func (d *DCQCN) OnAck(f *netsim.Flow, ack *packet.Packet, now sim.Time) {
	if f.Finished() {
		d.stopTimers()
		return
	}
	if ack.Seq > d.lastAckSeq {
		d.acked += ack.Seq - d.lastAckSeq
		d.lastAckSeq = ack.Seq
	}
	if d.acked >= d.cfg.ByteCounter {
		d.acked = 0
		d.byteStage++
		d.increase()
	}
}

// OnCnp implements netsim.CnpSink: the CNP reaction of DCQCN —
// rt <- rc; rc <- rc(1 - alpha/2); alpha <- (1-g)alpha + g; stages reset.
func (d *DCQCN) OnCnp(f *netsim.Flow, now sim.Time) {
	if f.Finished() {
		d.stopTimers()
		return
	}
	d.rt = d.rc
	d.rc = d.rc * (1 - float64(d.alpha/2))
	if d.rc < float64(d.cfg.MinRateBps) {
		d.rc = float64(d.cfg.MinRateBps)
	}
	d.alpha = float64((1-d.cfg.G)*d.alpha) + d.cfg.G
	d.byteStage, d.timeStage = 0, 0
	d.acked = 0
	d.armAlphaTimer()
	d.armIncTimer()
}

// dcqcnAlphaFired is the alpha-decay callback (arg-passing path: the timer
// re-arms every period without allocating a closure).
func dcqcnAlphaFired(v any) {
	d := v.(*DCQCN)
	d.alphaEv = sim.Event{}
	if d.done || d.flow.Finished() {
		return
	}
	d.alpha *= 1 - d.cfg.G
	d.armAlphaTimer()
}

// armAlphaTimer restarts alpha decay: with no CNP for AlphaTimer,
// alpha <- (1-g)alpha, repeatedly.
func (d *DCQCN) armAlphaTimer() {
	d.eng.Cancel(d.alphaEv)
	d.alphaEv = d.eng.AfterArg(d.cfg.AlphaTimer, dcqcnAlphaFired, d)
}

// dcqcnIncFired is the periodic rate-increase callback.
func dcqcnIncFired(v any) {
	d := v.(*DCQCN)
	d.incEv = sim.Event{}
	if d.done || d.flow.Finished() {
		return
	}
	d.timeStage++
	d.increase()
	d.armIncTimer()
}

// armIncTimer restarts the periodic rate-increase timer.
func (d *DCQCN) armIncTimer() {
	d.eng.Cancel(d.incEv)
	d.incEv = d.eng.AfterArg(d.cfg.IncTimer, dcqcnIncFired, d)
}

// increase applies one rate-increase event: fast recovery while both stage
// counters are below F, hyper increase when both exceed it, additive
// otherwise.
func (d *DCQCN) increase() {
	switch {
	case d.byteStage < d.cfg.F && d.timeStage < d.cfg.F:
		// Fast recovery: rc approaches rt.
	case d.byteStage >= d.cfg.F && d.timeStage >= d.cfg.F:
		d.rt += float64(d.cfg.RateHAIBps)
	default:
		d.rt += float64(d.cfg.RateAIBps)
	}
	if d.rt > float64(d.b) {
		d.rt = float64(d.b)
	}
	d.rc = (d.rc + d.rt) / 2
}

func (d *DCQCN) stopTimers() {
	d.done = true
	d.eng.Cancel(d.alphaEv)
	d.alphaEv = sim.Event{}
	d.eng.Cancel(d.incEv)
	d.incEv = sim.Event{}
}

// dcqcnReceiver emits paced CNPs for ECN-marked arrivals; ACKs carry no INT.
type dcqcnReceiver struct {
	interval sim.Time
}

// FillAck implements netsim.ReceiverCC: DCQCN ACKs are plain.
func (dcqcnReceiver) FillAck(ack, data *packet.Packet, _ *netsim.Host) {
	ack.AckedECN = data.ECN
}

// WantCnp implements netsim.CnpPacer: at most one CNP per flow per
// interval, matching NIC behaviour.
func (r dcqcnReceiver) WantCnp(data *packet.Packet, h *netsim.Host, now sim.Time) bool {
	f := h.InboundFlow(data)
	if f == nil {
		return false
	}
	if f.CnpLastAt != 0 && now-f.CnpLastAt < r.interval {
		return false
	}
	f.CnpLastAt = now
	return true
}

// wredHook is the switch-side ECN marker: probabilistic marking between
// Kmin and Kmax on instantaneous egress queue length, thresholds scaled
// with port rate.
type wredHook struct {
	cfg DCQCNConfig
	sw  *netsim.Switch
	rng *sim.RNG
}

// OnEnqueue implements netsim.SwitchHook.
func (w *wredHook) OnEnqueue(sw *netsim.Switch, pkt *packet.Packet, outPort int) {
	if pkt.Type != packet.Data {
		return
	}
	port := sw.PortAt(outPort)
	scale := float64(port.RateBps()) / 100e9
	kmin := float64(float64(w.cfg.KminBytes) * scale)
	kmax := float64(float64(w.cfg.KmaxBytes) * scale)
	q := float64(port.QueueBytes())
	switch {
	case q <= kmin:
		return
	case q >= kmax:
		pkt.ECN = true
	default:
		p := w.cfg.Pmax * (q - kmin) / (kmax - kmin)
		if w.rng.Float64() < p {
			pkt.ECN = true
		}
	}
}

// OnDequeue implements netsim.SwitchHook.
func (w *wredHook) OnDequeue(*netsim.Switch, *packet.Packet, int) {}

// NewDCQCNScheme assembles the complete DCQCN baseline.
func NewDCQCNScheme(cfg DCQCNConfig) netsim.Scheme {
	return netsim.Scheme{
		Name: "DCQCN",
		NewSenderCC: func(f *netsim.Flow) netsim.SenderCC {
			d := NewDCQCN(cfg, f)
			// Timers run from flow start; the engine is positioned before
			// Start when flows are added, so arm lazily at first event.
			f.SrcHost.Engine().Schedule(f.Start, func() {
				d.armAlphaTimer()
				d.armIncTimer()
			})
			return d
		},
		Receiver: dcqcnReceiver{interval: cfg.CnpInterval},
		NewSwitchHook: func(sw *netsim.Switch) netsim.SwitchHook {
			return &wredHook{cfg: cfg, sw: sw, rng: sw.Net().Rand.Fork()}
		},
	}
}
