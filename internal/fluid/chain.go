package fluid

import (
	"fmt"

	"repro/internal/topo"
)

// ChainOpts is the packet engine's chain description; Workers is ignored.
// Only the forward (sender → receiver) direction carries fluid volume; ACK
// bandwidth is negligible and not modeled.
type ChainOpts = topo.ChainOpts

// NewChain builds the fluid chain fabric. Hosts 0..len(SenderAttach)-1 are
// the senders; host len(SenderAttach) is the receiver (the only legal
// destination). Directed links: one access link per sender, the M-1
// inter-switch links, and the final switch→receiver link every flow shares.
func NewChain(cfg Config, o ChainOpts) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	senders := len(o.SenderAttach)
	receiver := senders
	// Link layout: [0,senders) sender access; [senders, senders+M-1) the
	// chain hops i→i+1; last index the receiver access link.
	links := make([]float64, senders+o.Switches)
	for i := range links {
		links[i] = float64(o.RateBps)
	}

	fb := &Fabric{
		Cfg:       cfg,
		LinkBps:   links,
		Hosts:     senders + 1,
		AccessBps: o.RateBps,
		Delay:     o.Delay,
		BaseRTT:   o.BaseRTT(cfg.MTUBytes),
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
			src = dst
		}
		return o.PathLinks(src)
	}
	return fb, nil
}
