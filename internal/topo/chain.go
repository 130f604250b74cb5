// Package topo builds the paper's evaluation topologies on the netsim
// substrate: the dumbbell/chain of Figs 10-11 and the three-level fat-tree
// (k=8, 128 hosts) of §5.5, including ECMP route installation and base-RTT
// / ideal-FCT computation.
package topo

import (
	"fmt"
	"slices"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// ChainOpts parameterizes a linear switch chain with hosts hanging off it.
type ChainOpts struct {
	// Switches is the chain length M (Fig 10; paper micro-benchmarks use 3).
	Switches int
	// SenderAttach lists, per sender, the switch index it attaches to.
	// All-zeros is the classic dumbbell; attaching later senders mid-chain
	// or at the last switch reproduces Fig 11's middle-/last-hop scenarios.
	SenderAttach []int
	// RateBps is the uniform link rate (paper sweeps 100/200/400 G).
	RateBps int64
	// Delay is the uniform propagation delay (paper: 1.5 us).
	Delay sim.Time
	// Workers > 1 partitions the network into one shard per switch (each
	// owning its attached hosts; the receiver joins the last switch's
	// shard), executed by Workers goroutines. Results are bit-identical to
	// the one shard of Workers <= 1.
	Workers int
}

// Chain is a built chain topology.
type Chain struct {
	Net      *netsim.Network
	Senders  []*netsim.Host
	Receiver *netsim.Host
	Switches []*netsim.Switch
	Opts     ChainOpts
}

// DefaultChainOpts is the Fig 10 micro-benchmark setup: M=3 switches,
// N senders on switch 0, 100 Gbps, 1.5 us.
func DefaultChainOpts(senders int) ChainOpts {
	return ChainOpts{
		Switches:     3,
		SenderAttach: make([]int, senders),
		RateBps:      100e9,
		Delay:        1500 * sim.Nanosecond,
	}
}

// Validate reports a chain shape or link rate no fabric can be built with.
func (o ChainOpts) Validate() error {
	switch {
	case o.Switches < 1:
		return fmt.Errorf("topo: chain needs >= 1 switch")
	case len(o.SenderAttach) == 0:
		return fmt.Errorf("topo: chain needs >= 1 sender")
	case o.RateBps <= 0:
		return fmt.Errorf("topo: non-positive link rate %d", o.RateBps)
	}
	for i, at := range o.SenderAttach {
		if at < 0 || at >= o.Switches {
			return fmt.Errorf("topo: sender %d attach point %d out of range", i, at)
		}
	}
	return nil
}

// BaseRTT is the round trip of the longest path — a sender on switch 0
// crosses Switches+1 links: both directions' propagation plus per-hop
// store-and-forward of one mtu-byte data frame and of an ACK carrying one
// INT hop per switch.
func (o ChainOpts) BaseRTT(mtu int) sim.Time {
	mtuTx := sim.TxTime(mtu, o.RateBps)
	ackTx := sim.TxTime(packet.AckBaseBytes+o.Switches*packet.IntHopBytes, o.RateBps)
	return sim.Time(o.Switches+1) * (2*o.Delay + mtuTx + ackTx)
}

// PathLinks returns the number of links from sender si to the receiver.
func (o ChainOpts) PathLinks(si int) int { return o.Switches - o.SenderAttach[si] + 1 }

// BuildChain constructs the topology, sets every switch's forwarding rule
// and sets cfg.BaseRTT and PathHops from the longest sender->receiver path,
// on fresh storage.
func BuildChain(cfg netsim.Config, scheme netsim.Scheme, opts ChainOpts) (*Chain, error) {
	return BuildChainOn(new(netsim.Storage), cfg, scheme, opts)
}

// BuildChainOn is BuildChain on st (netsim.NewOn).
func BuildChainOn(st *netsim.Storage, cfg netsim.Config, scheme netsim.Scheme, opts ChainOpts) (*Chain, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfg.BaseRTT = opts.BaseRTT(cfg.MTUBytes)

	n, err := netsim.NewOn(st, cfg, scheme)
	if err != nil {
		return nil, err
	}
	c := &Chain{Net: n, Opts: opts}

	// Count per-switch local hosts to size ports: port 0 = toward previous
	// switch, port 1 = toward next switch (or the receiver at the last),
	// ports 2.. = local senders.
	local := make([][]int, opts.Switches) // switch -> sender indexes
	for i, at := range opts.SenderAttach {
		local[at] = append(local[at], i)
	}
	// Shard plan for parallel execution: one shard per switch, every host
	// in its attach switch's shard (the receiver joins the last switch), so
	// only the inter-switch links cross shards. A single-switch chain has
	// nothing to parallelize and stays the one shard netsim.New made.
	place := func(int) {}
	if opts.Workers > 1 && opts.Switches > 1 {
		n.ConfigureSharding(opts.Switches, opts.Workers)
		place = n.BuildShard
	}
	for i := 0; i < opts.Switches; i++ {
		place(i)
		c.Switches = append(c.Switches, n.NewSwitch(2+len(local[i])))
	}
	c.Senders = make([]*netsim.Host, len(opts.SenderAttach))
	for i := range c.Senders {
		place(opts.SenderAttach[i])
		c.Senders[i] = n.NewHost()
	}
	place(opts.Switches - 1)
	c.Receiver = n.NewHost()

	// Wire the chain.
	for i := 0; i+1 < opts.Switches; i++ {
		netsim.Connect(c.Switches[i].PortAt(1), c.Switches[i+1].PortAt(0), opts.RateBps, opts.Delay)
	}
	netsim.Connect(c.Switches[opts.Switches-1].PortAt(1), c.Receiver.Port(), opts.RateBps, opts.Delay)
	senderPort := make([]int, len(c.Senders)) // port index on its switch
	for swi, idxs := range local {
		for k, si := range idxs {
			p := 2 + k
			senderPort[si] = p
			netsim.Connect(c.Senders[si].Port(), c.Switches[swi].PortAt(p), opts.RateBps, opts.Delay)
		}
	}

	// Forwarding rules over one window: the senders, then the receiver (the
	// node ids after the switches). Toward the receiver every switch
	// forwards "next" (port 1). Toward a sender, its own switch uses the
	// local port, switches further down the chain forward "previous" (port
	// 0) and switches before it "next".
	hosts := len(c.Senders) + 1
	downs := make([]int, opts.Switches*hosts)
	for swi, sw := range c.Switches {
		down := downs[swi*hosts : (swi+1)*hosts]
		for si, at := range opts.SenderAttach {
			switch {
			case swi == at:
				down[si] = senderPort[si]
			case swi < at:
				down[si] = 1
			}
		}
		down[hosts-1] = 1
		sw.SetRule(c.Senders[0].ID(), down, nil)
	}
	// The longest route runs from the first switch a sender uses to the
	// receiver's, the last.
	n.SetPathHops(min(opts.Switches-slices.Min(opts.SenderAttach), packet.MaxIntHops))
	return c, nil
}

// MustChain is BuildChain that panics on error (tests, examples).
func MustChain(cfg netsim.Config, scheme netsim.Scheme, opts ChainOpts) *Chain {
	c, err := BuildChain(cfg, scheme, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// BottleneckPort returns the canonical congestion point: the egress of the
// first switch toward the next hop (the port all Fig 9/13 queue-length
// plots monitor). For senders attached mid-chain the relevant port is
// Switches[attach].PortAt(1); this helper returns switch 0's.
func (c *Chain) BottleneckPort() *netsim.Port { return c.Switches[0].PortAt(1) }

// HopPort returns the egress port of the i-th switch toward the receiver,
// i.e. the queue of hop i+1 on the request path.
func (c *Chain) HopPort(i int) *netsim.Port { return c.Switches[i].PortAt(1) }

// IdealFCT computes the standalone completion time of size bytes from
// sender si: store-and-forward pipelining of full-MTU segments across the
// path at the uniform link rate.
func (c *Chain) IdealFCT(si int, size int64) sim.Time {
	return IdealFCT(size, c.Opts.PathLinks(si), c.Opts.RateBps, c.Opts.Delay, c.Net.Cfg.PayloadBytes())
}

// AddFlow is a convenience wrapper: sender si to the receiver, with
// IdealFCT pre-filled.
func (c *Chain) AddFlow(id uint64, si int, size int64, start sim.Time) *netsim.Flow {
	f := c.Net.AddFlow(id, c.Senders[si], c.Receiver, size, start)
	f.IdealFCT = c.IdealFCT(si, size)
	return f
}

// IdealFCT models the unloaded network, the slowdown denominator of both
// engines: the wire volume of size bytes cut into mtu-byte frames
// serializes once at the access rate, the last segment then crosses the
// remaining links, and every link adds its propagation delay. payload is
// netsim.Config.PayloadBytes, the bytes one full segment carries.
func IdealFCT(size int64, links int, rate int64, delay sim.Time, payload int) sim.Time {
	wire := WireBytes(size, payload)
	segs := (wire - size) / packet.DataHeaderBytes
	lastPkt := size - (segs-1)*int64(payload) + packet.DataHeaderBytes
	t := sim.TxTime(int(wire), rate)                        // source serialization
	t += sim.Time(links-1) * sim.TxTime(int(lastPkt), rate) // per-hop store-and-forward
	t += sim.Time(links) * delay                            // propagation
	return t
}

// WireBytes expands an application transfer of size bytes to the bytes its
// segments of payload bytes put on the wire: payload plus per-segment
// framing.
func WireBytes(size int64, payload int) int64 {
	p := int64(payload)
	return size + (size+p-1)/p*packet.DataHeaderBytes
}
