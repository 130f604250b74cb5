package netsim

import (
	"fmt"

	"repro/internal/chunk"
	"repro/internal/packet"
)

// Per-flow state — the Flow itself, a scheme's sender CC object and the INT
// history it keeps — is carved from chunks the Network owns (package chunk)
// instead of being allocated one object at a time (DESIGN.md "Per-flow and
// per-link state"). n.chunks holds one *chunk.Of[T] per element type.

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
		if c, ok := c.(*chunk.Of[T]); ok {
			return c.Take(k)
		}
	}
	c := &chunk.Of[T]{}
	n.chunks = append(n.chunks, c)
	return c.Take(k)
}

// PathHops is the most switches a routed host-to-host path crosses, at most
// packet.MaxIntHops: the INT records one frame can collect. The fabric's
// builder states it (SetPathHops) from its own geometry; a network wired by
// hand keeps packet.MaxIntHops. It sizes every INT stack
// (packet.Pool.ReserveHops) and every per-flow INT history, so neither
// grows on the hot path: an overcount costs capacity only, and a path it
// undercounts only costs that growth back.
func (n *Network) PathHops() int { return n.pathHops }

// SetPathHops states PathHops. It panics on a value outside
// [1, packet.MaxIntHops] and once a flow is added, since admission has sized
// per-flow state by the old value.
func (n *Network) SetPathHops(h int) {
	if h < 1 || h > packet.MaxIntHops {
		panic(fmt.Sprintf("netsim: PathHops %d outside [1, %d]", h, packet.MaxIntHops))
	}
	if len(n.flows) > 0 {
		panic("netsim: PathHops stated after the first flow")
	}
	n.pathHops = h
}
