package packet

import (
	"fmt"

	"repro/internal/chunk"
)

// Pool recycles Packet structs for one simulation engine — one shard's. Like
// the engine it serves, a Pool is single-threaded by design: each shard's
// window worker owns its own, so Get/Put take no locks.
//
// Storage is carved (package chunk): a miss takes the new frame from the
// pool's frame chunks, and a frame's first INT stamp takes its stack from
// the pool's hop chunks (ReserveHops), so a run allocates per chunk, not per
// frame. A frame then keeps its stack across its lives. Both stores stop
// doubling at 4 KB (chunk.Paged), 31 frames or 102 INT records: a run's
// frame count is its peak in flight, often a few hundred, and the unused
// tail of a doubled chunk would cost more bytes than the objects it
// replaces (DESIGN.md "Packet ownership"). Chunks belong to the pool. A pool
// that is run storage keeps them (Keep), and Rewind, once a run is over,
// hands them out again to the next run on the same pool (DESIGN.md "Run
// storage has an owner").
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
	free   []*Packet
	frames chunk.Of[Packet]
	hops   chunk.Of[IntHop]

	gets uint64
	news uint64
	puts uint64
}

// PoolStats is the pool's cumulative telemetry, surfaced per run by the
// experiment harness.
type PoolStats struct {
	// Gets counts acquisitions.
	Gets uint64
	// News counts acquisitions that had to make a fresh Packet (pool
	// misses), whether or not that took a new chunk.
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
func NewPool() *Pool {
	return &Pool{frames: chunk.Paged[Packet](), hops: chunk.Paged[IntHop]()}
}

// Keep makes the pool keep every chunk it carves from now on, for Rewind to
// hand out again: run storage calls it once, on a new pool.
func (p *Pool) Keep() { p.frames.Keep, p.hops.Keep = true, true }

// Rewind empties the pool for another run: counters zeroed, free list
// emptied, and the kept frame and INT-stack chunks handed out again, zeroed,
// as the next run's frames miss (chunk.Of.Rewind). A frame carved from them
// still counts as a New. Every frame of the earlier run must be dead.
func (p *Pool) Rewind() {
	p.free = chunk.Recycle(p.free)
	p.frames.Rewind()
	p.hops.Rewind()
	p.gets, p.news, p.puts = 0, 0, 0
}

// Bytes is the memory the pool keeps for the next run.
func (p *Pool) Bytes() int { return p.frames.Bytes() + p.hops.Bytes() + 8*cap(p.free) }

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
	return &p.frames.Take(1)[0]
}

// ReserveHops gives pkt, if it has no INT stack yet, an empty one with room
// for n records carved from the pool's hop chunks, so that up to n AddHops
// never grow it; a pooled frame keeps the stack across its lives (Reset).
// Stamping sites call it on their shard's pool with the fabric's longest
// path before the first AddHop. Get does not: most frames (data under FNCC,
// PFC, CNPs, credits) never take a hop. The stack's capacity is exactly n,
// so an append past it reallocates rather than writing into the next stack.
func (p *Pool) ReserveHops(pkt *Packet, n int) {
	if cap(pkt.Hops) == 0 && n > 0 {
		pkt.Hops = p.carveHops(n)
	}
}

// carveHops is ReserveHops' first stamp: an empty stack of capacity n from
// the pool's hop chunks. It is kept out of line so that ReserveHops, called
// at every stamp, stays small enough to inline.
//
//go:noinline
func (p *Pool) carveHops(n int) []IntHop { return p.hops.Take(n)[:0] }

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
// frame sized by Pool.ReserveHops is sized once). The retained array is cleared
// so no stale hop record can leak into the next occupant.
func (pkt *Packet) Reset() {
	hops := pkt.Hops[:cap(pkt.Hops)]
	for i := range hops {
		hops[i] = IntHop{}
	}
	*pkt = Packet{Hops: hops[:0]}
}
