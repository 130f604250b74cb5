package packet

import "fmt"

// Pool recycles Packet structs for one simulation engine. Like the engine it
// serves, a Pool is single-threaded by design: the harness parallelizes
// across independent runs, never inside one, so Get/Put take no locks.
//
// Ownership discipline (see DESIGN.md "Hot-path memory discipline"): every
// frame has exactly one owner — the host that built it, then the egress
// queue, the wire, and finally the node whose Receive consumes it. The
// consuming sink calls Put exactly once:
//
//   - a host Puts every frame it terminates (data after ACK generation,
//     ACKs/NACKs after the sender CC ran, CNPs, credits, PFC frames);
//   - a switch Puts PFC frames (link-local) and data frames it drops;
//   - forwarded frames are not Put — ownership moves to the next queue.
//
// Observers (trace hooks, CC callbacks) may read a packet during their
// callback but must copy anything they keep: after the sink returns, the
// struct is recycled and every field is zeroed.
type Pool struct {
	free []*Packet

	gets uint64
	news uint64
	puts uint64
}

// PoolStats is the pool's cumulative telemetry, surfaced per run by the
// experiment harness.
type PoolStats struct {
	// Gets counts acquisitions.
	Gets uint64
	// News counts acquisitions that had to allocate a fresh Packet (pool
	// misses).
	News uint64
	// Puts counts releases.
	Puts uint64
}

// HitRate is the fraction of Gets served by recycling ((Gets-News)/Gets);
// it approaches 1 in steady state.
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Gets-s.News) / float64(s.Gets)
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Stats returns cumulative acquisition/release counts.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Gets: p.gets, News: p.news, Puts: p.puts}
}

// Free returns how many recycled packets are currently pooled.
func (p *Pool) Free() int { return len(p.free) }

// Get returns a zeroed packet, recycling a released one when available.
func (p *Pool) Get() *Packet {
	p.gets++
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		pkt.pooled = false
		return pkt
	}
	p.news++
	return &Packet{}
}

// Put releases a packet back to the pool, resetting it first. Putting the
// same packet twice without an intervening Get panics — a double release
// means two owners believed they held the frame, which is exactly the
// corruption the single-owner rule exists to prevent. Put accepts packets
// the pool did not create (tests hand-build frames); nil is a no-op.
func (p *Pool) Put(pkt *Packet) {
	if pkt == nil {
		return
	}
	if pkt.pooled {
		panic(fmt.Sprintf("packet: double Put of %v", pkt))
	}
	pkt.Reset()
	pkt.pooled = true
	p.puts++
	p.free = append(p.free, pkt)
}

// Reset zeroes the packet for reuse, keeping the Hops backing array (its
// capacity is the point of pooling: INT append stays allocation-free, and a
// frame sized by ReserveHops is sized once). The retained array is cleared
// so no stale hop record can leak into the next occupant.
func (pkt *Packet) Reset() {
	hops := pkt.Hops[:cap(pkt.Hops)]
	for i := range hops {
		hops[i] = IntHop{}
	}
	*pkt = Packet{Hops: hops[:0]}
}
