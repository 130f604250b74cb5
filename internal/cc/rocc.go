package cc

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// RoCCConfig parameterizes the switch-driven PI controller of Taheri et al.
// RoCC computes a per-port fair rate at the switch and advertises it to the
// senders of transiting flows; the paper characterizes it as needing
// "millisecond-level delays to converge", which these gains reproduce.
type RoCCConfig struct {
	// QRefBytes is the target standing queue at the controlled egress.
	QRefBytes int64
	// Period is the PI update interval.
	Period sim.Time
	// Kp and Ki are the proportional and integral gains, expressed as
	// rate deltas (bps) per byte of queue error per update.
	Kp float64
	Ki float64
	// MinRateBps floors the advertised fair rate.
	MinRateBps int64
	// IdleRaise is the multiplicative relaxation toward line rate applied
	// when the queue is empty (lets the advertisement decay away).
	IdleRaise float64
}

// DefaultRoCCConfig returns gains that converge on millisecond scales at
// 100 Gbps, matching the paper's depiction ("RoCC is hard to converge at
// the microsecond level").
func DefaultRoCCConfig() RoCCConfig {
	return RoCCConfig{
		QRefBytes:  100 << 10,
		Period:     50 * sim.Microsecond,
		Kp:         25_000, // bps per queue-byte of error per update
		Ki:         2_500,
		MinRateBps: 50e6,
		IdleRaise:  1.02,
	}
}

// RoCCSender obeys the advertised fair rate from ACKs.
type RoCCSender struct {
	b    int64
	rate float64
	cfg  RoCCConfig
}

// NewRoCCSender builds RP state for one flow, starting at line rate, carved
// from the flow's network.
func NewRoCCSender(cfg RoCCConfig, f *netsim.Flow) *RoCCSender {
	b := f.SrcHost.Port().RateBps()
	s := netsim.Take[RoCCSender](f.SrcHost.Net())
	*s = RoCCSender{b: b, rate: float64(b), cfg: cfg}
	return s
}

// WindowBytes implements netsim.SenderCC (rate-based scheme).
func (r *RoCCSender) WindowBytes() int64 { return 1 << 40 }

// RateBps implements netsim.SenderCC.
func (r *RoCCSender) RateBps() int64 { return int64(r.rate) }

// OnAck implements netsim.SenderCC: adopt the path's minimum advertised
// fair rate; with no advertisement, relax toward line rate.
func (r *RoCCSender) OnAck(f *netsim.Flow, ack *packet.Packet, now sim.Time) {
	if ack.FairRateBps > 0 {
		r.rate = float64(ack.FairRateBps)
		if r.rate > float64(r.b) {
			r.rate = float64(r.b)
		}
		if r.rate < float64(r.cfg.MinRateBps) {
			r.rate = float64(r.cfg.MinRateBps)
		}
		return
	}
	r.rate *= r.cfg.IdleRaise
	if r.rate > float64(r.b) {
		r.rate = float64(r.b)
	}
}

// roccReceiver copies the switch's advertisement into the ACK.
type roccReceiver struct{}

// FillAck implements netsim.ReceiverCC.
func (roccReceiver) FillAck(ack, data *packet.Packet, _ *netsim.Host) {
	ack.FairRateBps = data.FairRateBps
}

// roccHook runs one PI controller per egress port and stamps the minimum
// fair rate along the path into transiting data packets.
type roccHook struct {
	cfg  RoCCConfig
	sw   *netsim.Switch
	fair []float64 // per-port advertised rate, bps
	qPrv []int64   // previous queue sample
	hot  []bool    // whether the port is currently advertising
}

func newRoCCHook(cfg RoCCConfig, sw *netsim.Switch) *roccHook {
	h := &roccHook{
		cfg:  cfg,
		sw:   sw,
		fair: make([]float64, sw.NumPorts()),
		qPrv: make([]int64, sw.NumPorts()),
		hot:  make([]bool, sw.NumPorts()),
	}
	for i := range h.fair {
		h.fair[i] = float64(maxRate(sw, i))
	}
	sw.Engine().Ticker(cfg.Period, h.update)
	return h
}

func maxRate(sw *netsim.Switch, port int) int64 {
	if r := sw.PortAt(port).RateBps(); r > 0 {
		return r
	}
	return 100e9 // unwired port (never carries traffic); placeholder
}

// update is one PI step per port:
//
//	fair += Kp*(qref - q) - Ki*(q - qPrev)
//
// A port is "hot" (advertising) while it holds a standing queue; once the
// queue empties the advertisement relaxes multiplicatively back to line
// rate and switches off.
func (h *roccHook) update() {
	for i := range h.fair {
		port := h.sw.PortAt(i)
		if port.Peer() == nil {
			continue
		}
		b := float64(port.RateBps())
		q := port.QueueBytes()
		if q > 0 || h.hot[i] {
			e := float64(h.cfg.QRefBytes - q)
			h.fair[i] += float64(h.cfg.Kp*e) - float64(h.cfg.Ki*float64(q-h.qPrv[i]))
			if h.fair[i] < float64(h.cfg.MinRateBps) {
				h.fair[i] = float64(h.cfg.MinRateBps)
			}
			if h.fair[i] >= b {
				h.fair[i] = b
				h.hot[i] = q > 0
			} else {
				h.hot[i] = true
			}
		}
		h.qPrv[i] = q
	}
}

// OnEnqueue implements netsim.SwitchHook.
func (h *roccHook) OnEnqueue(*netsim.Switch, *packet.Packet, int) {}

// OnDequeue implements netsim.SwitchHook: stamp the path-minimum fair rate.
func (h *roccHook) OnDequeue(sw *netsim.Switch, pkt *packet.Packet, outPort int) {
	if pkt.Type != packet.Data || !h.hot[outPort] {
		return
	}
	adv := int64(h.fair[outPort])
	if pkt.FairRateBps == 0 || adv < pkt.FairRateBps {
		pkt.FairRateBps = adv
	}
}

// NewRoCCScheme assembles the complete RoCC baseline.
func NewRoCCScheme(cfg RoCCConfig) netsim.Scheme {
	return netsim.Scheme{
		Name: "RoCC",
		NewSenderCC: func(f *netsim.Flow) netsim.SenderCC {
			return NewRoCCSender(cfg, f)
		},
		Receiver: roccReceiver{},
		NewSwitchHook: func(sw *netsim.Switch) netsim.SwitchHook {
			return newRoCCHook(cfg, sw)
		},
	}
}
