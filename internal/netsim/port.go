package netsim

import (
	"fmt"

	"repro/internal/chunk"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Port is one transmit/receive attachment point of a Node. Each port owns
// one egress FIFO for every frame on the data path (data, ACK, NACK, CNP,
// credit) plus a control lane for PFC frames (link-local, sent first, never
// paused). A PAUSE from the peer stops the data FIFO and a RESUME restarts
// it: the paper runs every experiment on one service level ("packets from
// all sources are transferred on the same service level"), so there is one
// lane to pause.
//
// Transmission is store-and-forward: a frame occupies the transmitter for
// its serialization time, then arrives at the peer after the link's
// propagation delay.
type Port struct {
	owner Node
	index int
	net   *Network
	// uid is the port's fabric-wide creation index: the canonical collision
	// key ordering simultaneous link deliveries (sim.Engine key semantics).
	// Identical at every shard count of the same topology.
	uid int32

	// Execution context: the owning shard and its engine (see shard.go).
	eng   *sim.Engine
	shard *Shard
	// longPauses counts this port's pause episodes beyond Cfg.PFCLongPause;
	// Network.LongPauses is their sum.
	longPauses int64

	// Link endpoint.
	peer  *Port
	rate  int64    // bps
	delay sim.Time // propagation

	// Egress state.
	queue       fifo     // data-path frames
	queueBytes  int64    // bytes in queue
	paused      bool     // PFC-paused by the peer
	pausedSince sim.Time // valid while paused
	control     fifo     // PFC frames, transmitted first, never paused
	busy        bool

	// In-flight transmission state. txPkt is the frame occupying the
	// transmitter (at most one); wire is the propagation FIFO — frames that
	// finished serializing and are crossing the link, delivered in order
	// because every frame on a link shares the same propagation delay.
	txPkt  *packet.Packet
	txSize int
	wire   fifo

	// Telemetry, readable by INT hooks.
	txBytes     uint64 // cumulative bytes that completed serialization
	txDataBytes uint64 // cumulative data-only bytes (utilization accounting)

	// onDequeue lets the owning node update shared-buffer/PFC accounting
	// the moment a frame starts serializing.
	onDequeue func(p *Port, pkt *packet.Packet)
	// onIdle fires when the transmitter finishes a frame and finds nothing
	// eligible to send; hosts use it to pull the next paced packet.
	onIdle func(p *Port)
}

// fifo is a frame queue with O(1) enqueue and dequeue: a ring that doubles
// when full, so it holds as much storage as the slice it replaced (whose
// dequeue shifted every queued frame down). A vacated slot is cleared at
// once, so the queue never holds a frame that has gone back to the pool.
//
// A doubled ring is carved from the port's shard's ring chunks (Storage)
// and the ring it replaces is cleared: its chunk is kept for the next run
// and must not keep a frame reachable with it. push
// and pop run for every frame and must inline (DESIGN.md "Port FIFOs"); a
// push that also grew would not, so its caller first calls room.
type fifo struct {
	buf  []*packet.Packet // ring storage; len is zero or a power of two
	head int              // index of the oldest frame
	n    int              // frames held
}

func (f *fifo) len() int { return f.n }

// room makes space for one more frame, growing the ring from c when full.
func (f *fifo) room(c *chunk.Of[*packet.Packet]) {
	if f.n == len(f.buf) {
		f.grow(c)
	}
}

// grow doubles the ring into storage carved from c, oldest frame first.
//
//go:noinline
func (f *fifo) grow(c *chunk.Of[*packet.Packet]) {
	grown := c.Take(max(4, 2*len(f.buf)))
	k := copy(grown, f.buf[f.head:])
	copy(grown[k:], f.buf[:f.head])
	clear(f.buf)
	f.buf, f.head = grown, 0
}

// push appends a frame to a ring that room has made space in.
func (f *fifo) push(pkt *packet.Packet) {
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = pkt
	f.n++
}

func (f *fifo) pop() *packet.Packet {
	pkt := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return pkt
}

// newPort returns a port on the network's current build shard, for its
// owner to keep in place: a host holds its one port, a switch all of its
// ports in one slice.
func newPort(owner Node, index int, net *Network) Port {
	sh := net.sharding.build
	p := Port{
		owner: owner, index: index, net: net, uid: net.nextPortUID,
		eng: sh.eng, shard: sh,
	}
	net.nextPortUID++
	return p
}

// Owner returns the node this port belongs to.
func (p *Port) Owner() Node { return p.owner }

// Index returns the port number on its owner.
func (p *Port) Index() int { return p.index }

// Peer returns the port at the far end of the link (nil if unwired).
func (p *Port) Peer() *Port { return p.peer }

// RateBps returns the link rate.
func (p *Port) RateBps() int64 { return p.rate }

// PropDelay returns the link's one-way propagation delay.
func (p *Port) PropDelay() sim.Time { return p.delay }

// QueueBytes returns egress occupancy (excludes the frame currently
// serializing — it has left the buffer — and queued PFC frames).
func (p *Port) QueueBytes() int64 { return p.queueBytes }

// QueueFrames returns the number of frames in the egress FIFO.
func (p *Port) QueueFrames() int { return p.queue.len() }

// TxBytes returns cumulative bytes transmitted (all frame types).
func (p *Port) TxBytes() uint64 { return p.txBytes }

// TxDataBytes returns cumulative data bytes transmitted.
func (p *Port) TxDataBytes() uint64 { return p.txDataBytes }

// Paused reports whether the peer has PFC-paused the port.
func (p *Port) Paused() bool { return p.paused }

// Connect wires two ports with a full-duplex link of the given rate and
// propagation delay. Both directions share the parameters, as in the paper
// (all links 100/200/400 Gbps with 1.5 us delay).
func Connect(a, b *Port, rateBps int64, delay sim.Time) {
	if a.peer != nil || b.peer != nil {
		panic(fmt.Sprintf("netsim: port already wired (%d/%d <-> %d/%d)",
			a.owner.ID(), a.index, b.owner.ID(), b.index))
	}
	if rateBps <= 0 {
		panic("netsim: non-positive link rate")
	}
	if delay < 0 {
		panic("netsim: negative propagation delay")
	}
	a.peer, b.peer = b, a
	a.rate, b.rate = rateBps, rateBps
	a.delay, b.delay = delay, delay
	if a.shard != b.shard {
		// A boundary-crossing link: its propagation delay is a lookahead
		// candidate for the conservative parallel executor.
		a.net.sharding.observeLink(delay)
	}
}

// enqueue appends a frame to its egress lane and starts the transmitter if
// idle.
func (p *Port) enqueue(pkt *packet.Packet) {
	if p.peer == nil {
		panic(fmt.Sprintf("netsim: enqueue on unwired port %d/%d", p.owner.ID(), p.index))
	}
	if pkt.Type.IsControl() {
		p.control.room(&p.shard.mem.rings)
		p.control.push(pkt)
	} else {
		p.queue.room(&p.shard.mem.rings)
		p.queue.push(pkt)
		p.queueBytes += int64(pkt.SizeBytes())
	}
	p.kick()
}

// setPaused updates the port's PFC state, feeds the long-pause watchdog,
// and restarts transmission on release.
func (p *Port) setPaused(v bool) {
	was := p.paused
	p.paused = v
	now := p.eng.Now()
	switch {
	case v && !was:
		p.pausedSince = now
	case !v && was:
		if th := p.net.Cfg.PFCLongPause; th > 0 && now-p.pausedSince >= th {
			p.longPauses++
		}
	}
	if !v {
		p.kick()
		if !p.busy && p.onIdle != nil {
			p.onIdle(p)
		}
	}
}

// PausedFor returns how long the port has been continuously paused (0 if
// not paused).
func (p *Port) PausedFor(now sim.Time) sim.Time {
	if !p.paused {
		return 0
	}
	return now - p.pausedSince
}

// next pops the next eligible frame — a PFC frame first, then the data FIFO
// unless paused — or nil.
func (p *Port) next() *packet.Packet {
	if p.control.len() > 0 {
		return p.control.pop()
	}
	if p.paused || p.queue.len() == 0 {
		return nil
	}
	pkt := p.queue.pop()
	p.queueBytes -= int64(pkt.SizeBytes())
	return pkt
}

// kick starts serializing the next eligible frame if the port is idle.
func (p *Port) kick() {
	if p.busy {
		return
	}
	pkt := p.next()
	if pkt == nil {
		return
	}

	p.busy = true
	if p.onDequeue != nil {
		p.onDequeue(p, pkt)
	}
	if p.net.Trace != nil {
		p.net.Trace(TraceEvent{
			Kind: TraceTx, At: p.eng.Now(),
			Node: p.owner.ID(), Port: p.index,
			Type: pkt.Type, FlowID: pkt.FlowID, Seq: pkt.Seq, Size: pkt.SizeBytes(),
		})
	}

	size := pkt.SizeBytes()
	p.txPkt = pkt
	p.txSize = size
	p.eng.AfterArg(sim.TxTime(size, p.rate), portTxDone, p)
}

// portTxDone fires when the transmitter finishes serializing a frame: the
// frame moves onto the wire (propagation FIFO), telemetry updates, and the
// next eligible frame starts. Arg-passing callback — no closure per frame.
func portTxDone(v any) {
	p := v.(*Port)
	pkt, size := p.txPkt, p.txSize
	p.txPkt = nil
	p.busy = false
	p.txBytes += uint64(size)
	if pkt.Type == packet.Data {
		p.txDataBytes += uint64(size)
	}
	if p.shard != p.peer.shard {
		// The peer lives in another shard: hand the frame to the barrier
		// exchange instead of the local wire (shard.go invariant 2).
		p.shard.sendRemote(p, pkt)
	} else {
		p.wire.room(&p.shard.mem.rings)
		p.wire.push(pkt)
		p.eng.AfterArgKeyed(p.delay, p.uid, portDeliver, p)
	}
	p.kick()
	if !p.busy && p.onIdle != nil {
		p.onIdle(p)
	}
}

// portDeliver completes a frame's link propagation: the oldest frame on the
// wire reaches the peer. FIFO order is exact because serialization
// completions are strictly ordered and the propagation delay is a link
// constant.
func portDeliver(v any) {
	p := v.(*Port)
	pkt := p.wire.pop()
	peer := p.peer
	peer.owner.Receive(pkt, peer.index)
}
