package netsim

import "repro/internal/packet"

// Per-flow state — the Flow itself, a scheme's sender CC object and the INT
// history it keeps — is carved from chunks the Network owns instead of being
// allocated one object at a time (DESIGN.md "Per-flow and per-link state").
// A chunk is one slice of a single element type. The first holds chunkMin
// elements and each next one twice the last, up to chunkMax; a chunk is never
// regrown, so every pointer into one stays valid while the network lives, and
// a small run stays small.
const (
	chunkMin = 32
	chunkMax = 4096
)

// chunk is the storage one element type is carved from.
type chunk[T any] struct {
	free []T // the unused tail of the current chunk
	size int // the current chunk's length
}

func (c *chunk[T]) take(k int) []T {
	if k > len(c.free) {
		c.size = min(max(2*c.size, chunkMin), chunkMax)
		c.free = make([]T, max(c.size, k))
	}
	s := c.free[:k:k]
	c.free = c.free[k:]
	return s
}

// Take returns a zeroed T carved from n's chunks. It is for state created at
// admission — AddFlow and the Scheme.NewSenderCC it calls — and must never be
// called from an event: the chunks are network-wide, and two shards' window
// workers would race on them. They belong to the Network, not to a Scheme
// value, because one Scheme may serve several networks running at once.
func Take[T any](n *Network) *T { return &TakeSlice[T](n, 1)[0] }

// TakeSlice returns k zeroed Ts carved from n's chunks, with capacity k so an
// append past it reallocates instead of running into a neighbour (nil for
// k == 0). The admission-only rule of Take applies.
func TakeSlice[T any](n *Network, k int) []T {
	if k == 0 {
		return nil
	}
	for _, c := range n.chunks {
		if c, ok := c.(*chunk[T]); ok {
			return c.take(k)
		}
	}
	c := &chunk[T]{}
	n.chunks = append(n.chunks, c)
	return c.take(k)
}

// PathHops is the most switches a routed host-to-host path crosses, at most
// packet.MaxIntHops: the INT records one frame can collect. It is fixed at the
// first AddFlow from the rules installed by then, and sizes every INT stack
// (packet.Packet.ReserveHops) and every per-flow INT history, so neither grows
// on the hot path. A path it undercounts only costs that growth back.
func (n *Network) PathHops() int { return n.pathHops }

// longestPath computes PathHops by walking the forwarding rules: per
// destination host, the longest route toward it from every switch a host
// attaches to, memoized per switch. No frame crosses a switch twice, so the
// switch count bounds the answer.
func (n *Network) longestPath() int {
	var ports int
	for _, s := range n.Switches {
		ports += len(s.ports)
	}
	next := make([][]*Switch, n.nextNodeID) // by node id: the switch behind each port
	behind := make([]*Switch, 0, ports)
	for _, s := range n.Switches {
		for _, p := range s.ports {
			behind = append(behind, p.peerSwitch())
		}
		next[s.id] = behind[len(behind)-len(s.ports):]
	}
	// The distinct switches hosts attach to, marked in memo until the first
	// walk clears it.
	starts := make([]*Switch, 0, len(n.Switches))
	memo := make([]int8, n.nextNodeID)
	for _, h := range n.Hosts {
		if sw := h.port.peerSwitch(); sw != nil && memo[sw.id] == 0 {
			memo[sw.id] = 1
			starts = append(starts, sw)
		}
	}
	longest := 0
	for _, dst := range n.Hosts {
		clear(memo)
		for _, sw := range starts {
			longest = max(longest, int(sw.hopsTo(dst.id, next, memo)))
		}
	}
	return min(longest, len(n.Switches))
}

// peerSwitch is the switch at the far end of p's link: nil for a host or an
// unwired port.
func (p *Port) peerSwitch() *Switch {
	if p.peer == nil {
		return nil
	}
	sw, _ := p.peer.owner.(*Switch)
	return sw
}

// hopsTo is the most switches, s included, that a frame crosses from s to
// host dst under the installed rules; next is longestPath's table of the
// switch behind each port. memo holds what is known for dst: 0 unknown, -1 on
// the current walk. Meeting s again on the walk means a cycle in the union of
// the equal-cost choices of hand-installed rules, which no single frame
// follows; it counts as the most the INT field can hold.
func (s *Switch) hopsTo(dst int32, next [][]*Switch, memo []int8) int8 {
	switch d := memo[s.id]; {
	case d > 0:
		return d
	case d < 0:
		return packet.MaxIntHops
	}
	memo[s.id] = -1
	d := int8(1)
	for _, p := range s.equalCost(dst) {
		if sw := next[s.id][p]; sw != nil {
			d = max(d, 1+sw.hopsTo(dst, next, memo))
		}
	}
	d = min(d, packet.MaxIntHops)
	memo[s.id] = d
	return d
}
