package netsim

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Switch is an output-queued, store-and-forward Ethernet switch with a
// shared packet buffer, per-flow ECMP routing, PFC, and a pluggable
// congestion-point hook (Fig 8's architecture: parser -> ingress pipeline ->
// fabric -> egress pipeline with INT insertion). PFC accounts per ingress
// port: the data bytes that entered through it and sit in the shared buffer
// decide when its upstream is paused and resumed.
type Switch struct {
	id    int32
	net   *Network
	ports []Port // one allocation per switch (NewSwitch)
	hook  SwitchHook

	// Execution context: the owning shard's engine and pool (see shard.go).
	eng  *sim.Engine
	pool *packet.Pool

	// The forwarding rule (SetRule): destinations in [lo, lo+len(down))
	// leave by down[dst-lo]; every other destination hashes over the
	// equal-cost up set. A switch without a rule routes nothing.
	lo   int32
	down []int
	up   []int

	// Shared-buffer occupancy across all egress queues (data frames only).
	buffered int64

	// PFC state, per ingress port: bytes resident in the shared buffer that
	// entered through the port, and whether we have paused its upstream.
	ingressBytes   []int64
	upstreamPaused []bool

	// PauseFrames counts PAUSE frames *sent by this switch* (Fig 3's
	// "pause frames at the congestion point"). It and Drops are what the
	// Network totals of the same names sum at run boundaries.
	PauseFrames int64
	// ResumeFrames counts RESUME frames sent.
	ResumeFrames int64
	// Drops counts data frames lost to shared-buffer exhaustion.
	Drops int64
	// EcnMarks counts data frames the congestion-point hook ECN-marked at
	// this switch (sampled by internal/telemetry).
	EcnMarks int64
}

// ID implements Node.
func (s *Switch) ID() int32 { return s.id }

// NumPorts implements Node.
func (s *Switch) NumPorts() int { return len(s.ports) }

// PortAt implements Node.
func (s *Switch) PortAt(i int) *Port { return &s.ports[i] }

// Net returns the owning network (hooks use it for configuration).
func (s *Switch) Net() *Network { return s.net }

// Engine returns the event engine driving this switch: the owning shard's.
// Switch hooks must arm their timers here, never on Net().Eng.
func (s *Switch) Engine() *sim.Engine { return s.eng }

// Pool returns the packet pool of the owning shard. Switch hooks take INT
// stacks from it (packet.Pool.ReserveHops), never from Net().Pool.
func (s *Switch) Pool() *packet.Pool { return s.pool }

// Hook returns the installed congestion-point hook.
func (s *Switch) Hook() SwitchHook { return s.hook }

// BufferedBytes returns current shared-buffer occupancy.
func (s *Switch) BufferedBytes() int64 { return s.buffered }

// SetRule installs the switch's one forwarding rule: a frame for a node id
// in the window [lo, lo+len(down)) leaves by port down[dst-lo], and any other
// frame hashes over the equal-cost up ports. The topology builder calls this
// once per switch while wiring the fabric, after every node the window names
// exists. The switch keeps down and up themselves, not copies, so a builder
// can hand one shared table to every switch that uses it; callers never
// modify a slice after passing it here.
func (s *Switch) SetRule(lo int32, down, up []int) {
	if lo < 0 || int64(lo)+int64(len(down)) > int64(s.net.nextNodeID) {
		panic(fmt.Sprintf("netsim: switch %d: window [%d, %d) is not existing nodes", s.id, lo, int64(lo)+int64(len(down))))
	}
	for _, set := range [][]int{down, up} {
		for _, p := range set {
			if p < 0 || p >= len(s.ports) {
				panic(fmt.Sprintf("netsim: switch %d: route port %d out of range", s.id, p))
			}
		}
	}
	s.lo, s.down, s.up = lo, down, up
}

// equalCost is the port set the rule allows toward node dst: one down port
// inside the window, the up set outside it. dst-lo is taken in 64 bits, so no
// destination wraps into the window.
func (s *Switch) equalCost(dst int32) []int {
	if i := int64(dst) - int64(s.lo); uint64(i) < uint64(len(s.down)) {
		return s.down[i : i+1 : i+1]
	}
	return s.up
}

// RouteTo returns the port the switch selects for pkt, hashing the frame's
// 5-tuple over the rule's equal-cost set, so every frame of a flow takes one
// path (Fig 5: with symmetric hashing and symmetric tables, a data packet and
// its ACK pick the same links).
func (s *Switch) RouteTo(pkt *packet.Packet) (int, error) {
	set := s.equalCost(pkt.Dst)
	if len(set) == 0 {
		return 0, fmt.Errorf("netsim: switch %d has no route to host %d", s.id, pkt.Dst)
	}
	if len(set) == 1 {
		return set[0], nil
	}
	return set[packet.SymmetricHash(pkt.Tuple())%uint64(len(set))], nil
}

// Receive implements Node: the switch's ingress engine (Algorithm 1 lines
// 1-5) plus forwarding and buffer/PFC bookkeeping.
func (s *Switch) Receive(pkt *packet.Packet, inPort int) {
	switch pkt.Type {
	case packet.PfcPause:
		s.ports[inPort].setPaused(true)
		s.pool.Put(pkt) // PFC is link-local: consumed here
		return
	case packet.PfcResume:
		s.ports[inPort].setPaused(false)
		s.pool.Put(pkt)
		return
	}

	// Algorithm 1 line 3: record the arrival port in packet metadata. For
	// ACKs this is, by Observation 3, the egress port of the corresponding
	// request-path data — the index FNCC's egress engine uses for its
	// All_INT_Table lookup.
	pkt.InputPort = int32(inPort)

	outPort, err := s.RouteTo(pkt)
	if err != nil {
		panic(err) // static topologies: a missing route is a builder bug
	}

	size := int64(pkt.SizeBytes())
	if pkt.Type == packet.Data {
		if s.buffered+size > s.net.Cfg.SharedBufferBytes {
			s.Drops++
			if s.net.Trace != nil {
				s.net.Trace(TraceEvent{
					Kind: TraceDrop, At: s.eng.Now(),
					Node: s.id, Port: -1,
					Type: pkt.Type, FlowID: pkt.FlowID, Seq: pkt.Seq, Size: pkt.SizeBytes(),
				})
			}
			s.pool.Put(pkt) // dropped: the buffer was its last owner
			return
		}
		s.buffered += size
		if s.net.Cfg.PFCEnabled {
			s.ingressBytes[inPort] += size
			s.checkPause(inPort)
		}
	}

	s.ports[outPort].enqueue(pkt)
	if pkt.Type == packet.Data {
		if s.net.Trace != nil {
			s.net.Trace(TraceEvent{
				Kind: TraceEnqueue, At: s.eng.Now(),
				Node: s.id, Port: outPort,
				Type: pkt.Type, FlowID: pkt.FlowID, Seq: pkt.Seq, Size: pkt.SizeBytes(),
			})
		}
		wasECN := pkt.ECN
		s.hook.OnEnqueue(s, pkt, outPort)
		if pkt.ECN && !wasECN {
			s.EcnMarks++
			if s.net.Trace != nil {
				s.net.Trace(TraceEvent{
					Kind: TraceMark, At: s.eng.Now(),
					Node: s.id, Port: outPort,
					Type: pkt.Type, FlowID: pkt.FlowID, Seq: pkt.Seq, Size: pkt.SizeBytes(),
				})
			}
		}
	}
}

// onPortDequeue runs when a frame starts serializing on an egress port:
// releases shared buffer, updates PFC accounting, then lets the hook stamp
// telemetry (Algorithm 1 lines 6-10 for FNCC; HPCC stamps data instead).
func (s *Switch) onPortDequeue(p *Port, pkt *packet.Packet) {
	if pkt.Type == packet.Data {
		s.buffered -= int64(pkt.SizeBytes())
		if s.net.Cfg.PFCEnabled {
			in := int(pkt.InputPort)
			s.ingressBytes[in] -= int64(pkt.SizeBytes())
			s.checkResume(in)
		}
	}
	s.hook.OnDequeue(s, pkt, p.index)
	if pkt.Type == packet.Data && s.net.Trace != nil {
		s.net.Trace(TraceEvent{
			Kind: TraceDequeue, At: s.eng.Now(),
			Node: s.id, Port: p.index,
			Type: pkt.Type, FlowID: pkt.FlowID, Seq: pkt.Seq, Size: pkt.SizeBytes(),
		})
	}
}

// checkPause sends a PAUSE to inPort's upstream when the port's buffer
// share crosses the threshold.
func (s *Switch) checkPause(inPort int) {
	if s.upstreamPaused[inPort] || s.ingressBytes[inPort] < s.net.Cfg.PFCPauseBytes {
		return
	}
	s.upstreamPaused[inPort] = true
	s.PauseFrames++
	if s.net.Trace != nil {
		s.net.Trace(TraceEvent{
			Kind: TracePause, At: s.eng.Now(),
			Node: s.id, Port: inPort,
			Type: packet.PfcPause,
		})
	}
	pf := s.pool.Get()
	pf.Type = packet.PfcPause
	s.ports[inPort].enqueue(pf)
}

// checkResume releases the upstream once the port's occupancy falls to the
// hysteresis level.
func (s *Switch) checkResume(inPort int) {
	if !s.upstreamPaused[inPort] || s.ingressBytes[inPort] > s.net.Cfg.PFCResumeBytes {
		return
	}
	s.upstreamPaused[inPort] = false
	s.ResumeFrames++
	if s.net.Trace != nil {
		s.net.Trace(TraceEvent{
			Kind: TraceResume, At: s.eng.Now(),
			Node: s.id, Port: inPort,
			Type: packet.PfcResume,
		})
	}
	pf := s.pool.Get()
	pf.Type = packet.PfcResume
	s.ports[inPort].enqueue(pf)
}

// PortINT captures the live INT record of an egress port — the
// {B, TS, txBytes, qLen} tuple both HPCC (stamped on data) and FNCC (stored
// in the All_INT_Table and stamped on ACKs) use.
func (s *Switch) PortINT(port int) packet.IntHop {
	p := &s.ports[port]
	return packet.IntHop{
		SwitchID: s.id,
		PortID:   int32(port),
		B:        p.RateBps(),
		TS:       s.eng.Now(),
		TxBytes:  p.TxBytes(),
		QLen:     uint32(p.QueueBytes()),
	}
}
