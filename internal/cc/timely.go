package cc

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Timely (Mittal et al., SIGCOMM'15) is an RTT-gradient rate controller.
// The paper cites it among the end-to-end schemes whose "shared drawback is
// their delayed reaction to congestion" (§6) but does not include it in the
// evaluation; this implementation is provided as an extension so the
// harness can compare a purely delay-based RP on the same substrate.
type TimelyConfig struct {
	// EwmaAlpha weighs new RTT-difference samples (paper: 0.875 applied to
	// the *previous* estimate, i.e. new sample weight 0.125).
	EwmaAlpha float64
	// TLow / THigh bracket the gradient band: below TLow additive
	// increase, above THigh multiplicative decrease regardless of slope.
	TLow, THigh sim.Time
	// AddStepBps is the additive increase step δ.
	AddStepBps int64
	// Beta is the multiplicative-decrease factor.
	Beta float64
	// HAIThresh is how many consecutive negative-gradient samples enter
	// hyper-active increase (N·δ).
	HAIThresh int
	// MinRateBps floors the rate.
	MinRateBps int64
}

// DefaultTimelyConfig returns constants scaled to 100G fabrics with ~13 us
// base RTTs (the original paper targeted 10G/ms-scale; thresholds scale
// with the fabric's RTT).
func DefaultTimelyConfig() TimelyConfig {
	return TimelyConfig{
		EwmaAlpha:  0.125,
		TLow:       20 * sim.Microsecond,
		THigh:      100 * sim.Microsecond,
		AddStepBps: 2e9,
		Beta:       0.8,
		HAIThresh:  5,
		MinRateBps: 100e6,
	}
}

// Timely is the per-flow RP state.
type Timely struct {
	cfg TimelyConfig
	b   int64

	rate     float64
	prevRTT  sim.Time
	rttDiff  float64 // EWMA of RTT differences, in seconds
	negCount int
	minRTT   sim.Time
}

// NewTimely builds RP state for one flow, starting at line rate, carved from
// the flow's network.
func NewTimely(cfg TimelyConfig, f *netsim.Flow) *Timely {
	b := f.SrcHost.Port().RateBps()
	t := netsim.Take[Timely](f.SrcHost.Net())
	*t = Timely{
		cfg:    cfg,
		b:      b,
		rate:   float64(b),
		minRTT: f.SrcHost.Net().Cfg.BaseRTT,
	}
	return t
}

// WindowBytes implements netsim.SenderCC (rate-based).
func (t *Timely) WindowBytes() int64 { return 1 << 40 }

// RateBps implements netsim.SenderCC.
func (t *Timely) RateBps() int64 { return int64(t.rate) }

// OnAck implements netsim.SenderCC: the Timely update on each RTT sample.
func (t *Timely) OnAck(f *netsim.Flow, ack *packet.Packet, now sim.Time) {
	if ack.EchoTS == 0 {
		return
	}
	rtt := now - ack.EchoTS
	if rtt <= 0 {
		return
	}
	if t.prevRTT == 0 {
		t.prevRTT = rtt
		return
	}
	newDiff := (rtt - t.prevRTT).Seconds()
	t.prevRTT = rtt
	t.rttDiff = float64((1-t.cfg.EwmaAlpha)*t.rttDiff) + float64(t.cfg.EwmaAlpha*newDiff)
	gradient := t.rttDiff / t.minRTT.Seconds()

	switch {
	case rtt < t.cfg.TLow:
		t.negCount = 0
		t.rate += float64(t.cfg.AddStepBps)
	case rtt > t.cfg.THigh:
		t.negCount = 0
		t.rate *= 1 - float64(t.cfg.Beta*(1-t.cfg.THigh.Seconds()/rtt.Seconds()))
	case gradient <= 0:
		t.negCount++
		n := 1.0
		if t.negCount >= t.cfg.HAIThresh {
			n = 5
		}
		t.rate += float64(n * float64(t.cfg.AddStepBps))
	default:
		t.negCount = 0
		dec := 1 - float64(t.cfg.Beta*gradient)
		if dec < 0.5 {
			dec = 0.5 // bound a single-step decrease
		}
		t.rate *= dec
	}
	if t.rate > float64(t.b) {
		t.rate = float64(t.b)
	}
	if t.rate < float64(t.cfg.MinRateBps) {
		t.rate = float64(t.cfg.MinRateBps)
	}
}

// timelyReceiver echoes the data packet's send timestamp so the sender can
// sample RTT.
type timelyReceiver struct{}

// FillAck implements netsim.ReceiverCC.
func (timelyReceiver) FillAck(ack, data *packet.Packet, _ *netsim.Host) {
	ack.EchoTS = data.SendTime
}

// NewTimelyScheme assembles the Timely extension baseline. Switches need no
// hook: the fabric only contributes queueing delay.
func NewTimelyScheme(cfg TimelyConfig) netsim.Scheme {
	return netsim.Scheme{
		Name: "Timely",
		NewSenderCC: func(f *netsim.Flow) netsim.SenderCC {
			return NewTimely(cfg, f)
		},
		Receiver: timelyReceiver{},
	}
}
