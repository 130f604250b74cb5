package cc

import (
	"math"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Swift (Kumar et al., SIGCOMM'20) is Google's delay-target congestion
// control: a congestion window driven by the gap between measured RTT and a
// topology-scaled target delay, with multiplicative decrease bounded per
// RTT. Like Timely it is cited in the paper's §6 ("end-to-end notification
// ... delayed reaction to congestion") but not evaluated; it is provided as
// an extension baseline on the same substrate.
type SwiftConfig struct {
	// BaseTargetDelay is the fixed component of the target.
	BaseTargetDelay sim.Time
	// PerHopDelay scales the target with path length (hop count is taken
	// from the fabric's base RTT when INT is absent, so this implementation
	// uses a flat fabric component).
	PerHopDelay sim.Time
	// AIBytes is the additive increase per RTT when below target.
	AIBytes float64
	// Beta is the multiplicative-decrease gain.
	Beta float64
	// MaxMdf bounds a single multiplicative decrease.
	MaxMdf float64
	// FsRange enables flow-scaling: the target grows by up to this many
	// microseconds divided by sqrt(cwnd in MTUs), letting many small
	// windows coexist.
	FsRange sim.Time
	// MinWndBytes / MaxWndFactor bound the window ([min, factor*BDP]).
	MinWndBytes  float64
	MaxWndFactor float64
}

// DefaultSwiftConfig returns constants scaled to the 100G/13us fabric.
func DefaultSwiftConfig() SwiftConfig {
	return SwiftConfig{
		BaseTargetDelay: 25 * sim.Microsecond,
		PerHopDelay:     2 * sim.Microsecond,
		AIBytes:         3036, // 2 MTU per RTT
		Beta:            0.8,
		MaxMdf:          0.5,
		FsRange:         30 * sim.Microsecond,
		MinWndBytes:     1518,
		MaxWndFactor:    1.2,
	}
}

// Swift is the per-flow RP state.
type Swift struct {
	cfg SwiftConfig
	b   int64
	t   sim.Time // base RTT

	wnd     float64
	lastCut sim.Time
	rate    int64
}

// NewSwift builds RP state for one flow, starting at one BDP, carved from the
// flow's network.
func NewSwift(cfg SwiftConfig, f *netsim.Flow) *Swift {
	b := f.SrcHost.Port().RateBps()
	t := f.SrcHost.Net().Cfg.BaseRTT
	s := netsim.Take[Swift](f.SrcHost.Net())
	*s = Swift{cfg: cfg, b: b, t: t}
	s.wnd = float64(b) / 8 * t.Seconds()
	s.rate = b
	return s
}

// WindowBytes implements netsim.SenderCC.
func (s *Swift) WindowBytes() int64 { return int64(s.wnd) }

// RateBps implements netsim.SenderCC.
func (s *Swift) RateBps() int64 { return s.rate }

// swiftTelemetryVars is returned by TelemetryVars (stable, never mutated).
var swiftTelemetryVars = []string{"target_delay_us", "wnd_bytes"}

// TelemetryVars implements netsim.Observable.
func (s *Swift) TelemetryVars() []string { return swiftTelemetryVars }

// TelemetrySample implements netsim.Observable: the flow-scaled delay
// target and the congestion window, Swift's two decision variables.
func (s *Swift) TelemetrySample(out []float64) {
	out[0] = s.target().Micros()
	out[1] = s.wnd
}

// target computes the flow-scaled target delay.
func (s *Swift) target() sim.Time {
	t := s.cfg.BaseTargetDelay + s.cfg.PerHopDelay
	if s.cfg.FsRange > 0 {
		mtus := s.wnd / 1518
		if mtus < 1 {
			mtus = 1
		}
		fs := float64(s.cfg.FsRange) / math.Sqrt(mtus)
		max := float64(s.cfg.FsRange)
		if fs > max {
			fs = max
		}
		t += sim.Time(fs)
	}
	return t
}

// OnAck implements netsim.SenderCC: Swift's per-ACK window update.
func (s *Swift) OnAck(f *netsim.Flow, ack *packet.Packet, now sim.Time) {
	if ack.EchoTS == 0 {
		return
	}
	rtt := now - ack.EchoTS
	if rtt <= 0 {
		return
	}
	target := s.target()
	if rtt < target {
		// Additive increase, amortized per ACK over the window.
		if s.wnd > 0 {
			s.wnd += s.cfg.AIBytes * 1452 / s.wnd
		}
	} else if now-s.lastCut >= s.t {
		// At most one multiplicative decrease per RTT.
		mdf := s.cfg.Beta * float64(rtt-target) / float64(rtt)
		if mdf > s.cfg.MaxMdf {
			mdf = s.cfg.MaxMdf
		}
		s.wnd *= 1 - mdf
		s.lastCut = now
	}
	maxW := float64(s.b) / 8 * s.t.Seconds() * s.cfg.MaxWndFactor
	if s.wnd < s.cfg.MinWndBytes {
		s.wnd = s.cfg.MinWndBytes
	}
	if s.wnd > maxW {
		s.wnd = maxW
	}
	s.rate = int64(s.wnd * 8 / s.t.Seconds())
	if s.rate > s.b {
		s.rate = s.b
	}
}

// NewSwiftScheme assembles the Swift extension baseline (reuses Timely's
// timestamp-echo receiver; switches need no hook).
func NewSwiftScheme(cfg SwiftConfig) netsim.Scheme {
	return netsim.Scheme{
		Name: "Swift",
		NewSenderCC: func(f *netsim.Flow) netsim.SenderCC {
			return NewSwift(cfg, f)
		},
		Receiver: timelyReceiver{},
	}
}
