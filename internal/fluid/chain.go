package fluid

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// ChainOpts mirrors topo.ChainOpts: a linear switch chain with senders
// hanging off it and one receiver behind the last switch. Only the forward
// (sender → receiver) direction carries fluid volume; ACK bandwidth is
// negligible and not modeled.
type ChainOpts struct {
	// Switches is the chain length M.
	Switches int
	// SenderAttach lists, per sender, the switch index it attaches to.
	SenderAttach []int
	// RateBps is the uniform link rate.
	RateBps int64
	// Delay is the uniform propagation delay.
	Delay sim.Time
}

// NewChain builds the fluid chain fabric. Hosts 0..len(SenderAttach)-1 are
// the senders; host len(SenderAttach) is the receiver (the only legal
// destination). Directed links: one access link per sender, the M-1
// inter-switch links, and the final switch→receiver link every flow shares.
func NewChain(cfg Config, o ChainOpts) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if o.Switches < 1 {
		return nil, fmt.Errorf("fluid: chain needs >= 1 switch")
	}
	if len(o.SenderAttach) == 0 {
		return nil, fmt.Errorf("fluid: chain needs >= 1 sender")
	}
	if o.RateBps <= 0 {
		return nil, fmt.Errorf("fluid: non-positive link rate")
	}
	for i, at := range o.SenderAttach {
		if at < 0 || at >= o.Switches {
			return nil, fmt.Errorf("fluid: sender %d attach point %d out of range", i, at)
		}
	}
	senders := len(o.SenderAttach)
	receiver := senders
	// Link layout: [0,senders) sender access; [senders, senders+M-1) the
	// chain hops i→i+1; last index the receiver access link.
	nLinks := senders + o.Switches
	links := make([]float64, nLinks)
	for i := range links {
		links[i] = float64(o.RateBps)
	}

	// BaseRTT mirrors topo.BuildChain's longest-path formula.
	mtuTx := sim.TxTime(cfg.MTUBytes, o.RateBps)
	ackTx := sim.TxTime(packet.AckBaseBytes+o.Switches*packet.IntHopBytes, o.RateBps)
	baseRTT := sim.Time(o.Switches+1) * (2*o.Delay + mtuTx + ackTx)

	fb := &Fabric{
		Cfg:       cfg,
		LinkBps:   links,
		Hosts:     senders + 1,
		AccessBps: o.RateBps,
		Delay:     o.Delay,
		BaseRTT:   baseRTT,
	}
	fb.route = func(path []int32, id uint64, src, dst int) ([]int32, error) {
		if dst != receiver {
			return nil, fmt.Errorf("fluid: chain flows must target the receiver (host %d), got %d", receiver, dst)
		}
		if src == receiver {
			return nil, fmt.Errorf("fluid: the chain receiver cannot send")
		}
		path = append(path, int32(src))
		for h := o.SenderAttach[src]; h < o.Switches; h++ {
			path = append(path, int32(senders+h))
		}
		return path, nil
	}
	fb.pathLinks = func(src, dst int) int {
		if src == receiver {
			src, dst = dst, src
		}
		return o.Switches - o.SenderAttach[src] + 1
	}
	return fb, nil
}
