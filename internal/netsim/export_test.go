package netsim

import "repro/internal/packet"

// FixedScheme is the constant-rate scheme of the package tests, for the
// external ones.
var FixedScheme = fixedScheme

// LongestRoute is the oracle for PathHops: the most switches a frame crosses
// from any host's switch to any host, by a plain depth-first walk over every
// equal-cost choice of the installed rules. The walk is exponential in the
// path length, so it is for small fabrics. A route longer than the switch
// count has met a switch twice, which the INT field cannot hold: it counts as
// packet.MaxIntHops.
func LongestRoute(n *Network) int {
	var walk func(s *Switch, dst int32, hops int) int
	walk = func(s *Switch, dst int32, hops int) int {
		if hops > len(n.Switches) {
			return packet.MaxIntHops
		}
		longest := hops
		for _, p := range s.equalCost(dst) {
			if next := peerSwitch(s.ports[p]); next != nil {
				longest = max(longest, walk(next, dst, hops+1))
			}
		}
		return longest
	}
	longest := 0
	for _, src := range n.Hosts {
		if first := peerSwitch(src.port); first != nil {
			for _, dst := range n.Hosts {
				longest = max(longest, walk(first, dst.id, 1))
			}
		}
	}
	return min(longest, packet.MaxIntHops)
}

// peerSwitch is the switch at the far end of p's link: nil for a host or an
// unwired port.
func peerSwitch(p *Port) *Switch {
	if p.peer == nil {
		return nil
	}
	sw, _ := p.peer.owner.(*Switch)
	return sw
}
