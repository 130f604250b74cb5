package fluid

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// FatTreeOpts mirrors topo.FatTreeOpts: a three-level k-ary fat-tree with
// optional core oversubscription.
type FatTreeOpts struct {
	// K is the arity; k pods, (k/2)^2 cores, k^3/4 hosts. Even, >= 2.
	K int
	// RateBps is the access and edge-aggregation link rate.
	RateBps int64
	// CoreRateBps is the aggregation-core rate; zero means RateBps.
	CoreRateBps int64
	// Delay is the uniform propagation delay.
	Delay sim.Time
}

func (o FatTreeOpts) coreRate() int64 {
	if o.CoreRateBps > 0 {
		return o.CoreRateBps
	}
	return o.RateBps
}

// NewFatTree builds the fluid fat-tree fabric. Paths replicate the packet
// engine's routing exactly — same wiring, same symmetric ECMP hash over the
// same per-flow 5-tuple — so a given flow set collides on the same
// aggregation and core links under both backends. That shared placement is
// what lets small-scenario cross-validation compare like with like.
func NewFatTree(cfg Config, o FatTreeOpts) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := o.K
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("fluid: fat-tree arity %d must be even and >= 2", k)
	}
	if o.RateBps <= 0 {
		return nil, fmt.Errorf("fluid: non-positive link rate")
	}
	half := k / 2
	hosts := k * k * k / 4
	// Directed link layout, in blocks:
	//   [0,H)          host access up (host → edge)
	//   [H,2H)         host access down (edge → host)
	//   [2H, 2H+E)     edge→agg up, index (pod*half+e)*half + a
	//   [2H+E, 2H+2E)  agg→edge down, same (pod, e, a) indexing
	//   [2H+2E, +C)    agg→core up, index (pod*half+a)*half + j
	//   [.., +2C)      core→agg down, same (pod, a, j) indexing
	// where E = C = k * half * half.
	E := k * half * half
	base := struct{ upH, downH, upEA, downEA, upAC, downAC int }{
		0, hosts, 2 * hosts, 2*hosts + E, 2*hosts + 2*E, 2*hosts + 3*E,
	}
	links := make([]float64, 2*hosts+4*E)
	for i := 0; i < 2*hosts+2*E; i++ {
		links[i] = float64(o.RateBps)
	}
	for i := 2*hosts + 2*E; i < len(links); i++ {
		links[i] = float64(o.coreRate())
	}

	// BaseRTT mirrors topo.BuildFatTree: 6-link longest path.
	mtuTx := sim.TxTime(cfg.MTUBytes, o.RateBps)
	ackTx := sim.TxTime(packet.AckBaseBytes+5*packet.IntHopBytes, o.RateBps)
	baseRTT := 6 * (2*o.Delay + mtuTx + ackTx)

	podOf := func(h int) int { return h / (half * half) }
	edgeOf := func(h int) int { return (h % (half * half)) / half }

	fb := &Fabric{
		Cfg:       cfg,
		LinkBps:   links,
		Hosts:     hosts,
		AccessBps: o.RateBps,
		Delay:     o.Delay,
		BaseRTT:   baseRTT,
	}
	fb.route = func(path []int32, id uint64, src, dst int) ([]int32, error) {
		sp, se := podOf(src), edgeOf(src)
		dp, de := podOf(dst), edgeOf(dst)
		if sp == dp && se == de {
			return append(path, int32(base.upH+src), int32(base.downH+dst)), nil
		}
		// The packet engine hashes the flow 5-tuple once per switch over
		// equal-cost sets of identical size (k/2), so every hop picks the
		// same index a. Tuple fields replicate netsim.AddFlow: host IDs as
		// addresses (the fat-tree builder numbers hosts 0..H-1 first) and
		// the RoCEv2 port pair.
		h := packet.SymmetricHash(packet.FiveTuple{
			SrcAddr: int32(src), DstAddr: int32(dst),
			SrcPort: uint16(49152 + id%16384), DstPort: 4791,
			Proto: 17,
		})
		a := int(h % uint64(half))
		if sp == dp {
			return append(path,
				int32(base.upH+src),
				int32(base.upEA+(sp*half+se)*half+a),
				int32(base.downEA+(sp*half+de)*half+a),
				int32(base.downH+dst),
			), nil
		}
		return append(path,
			int32(base.upH+src),
			int32(base.upEA+(sp*half+se)*half+a),
			int32(base.upAC+(sp*half+a)*half+a),
			int32(base.downAC+(dp*half+a)*half+a),
			int32(base.downEA+(dp*half+de)*half+a),
			int32(base.downH+dst),
		), nil
	}
	fb.pathLinks = func(src, dst int) int {
		if podOf(src) != podOf(dst) {
			return 6
		}
		if edgeOf(src) != edgeOf(dst) {
			return 4
		}
		return 2
	}
	return fb, nil
}
