package netsim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Network owns the simulation: the executor and its shards, configuration,
// scheme, nodes, flows and fabric-wide totals (build order: package comment).
type Network struct {
	// Eng and Pool are shard 0's engine and packet pool: all there is on an
	// unpartitioned network. Eng is also the fabric's clock, exact between
	// Run* calls and inside GlobalTicker callbacks. Both are single-threaded;
	// see the ownership rules on packet.Pool.
	Eng  *sim.Engine
	Pool *packet.Pool
	// Rand is the fabric's deterministic random source (WRED marking);
	// derived from Cfg.Seed.
	Rand   *sim.RNG
	Cfg    Config
	Scheme Scheme

	Hosts    []*Host
	Switches []*Switch

	// flows is the flow table: a flow's position is its QP number, carried
	// by every frame of the flow (see flowOf). flowIDs holds the ids in use,
	// consulted only by AddFlow.
	flows   []*Flow
	flowIDs map[uint64]struct{}

	// chunks holds one *chunk.Of[T] per element type carved by Take/TakeSlice,
	// and pathHops the fabric's longest path (see PathHops).
	chunks   []any
	pathHops int

	nextNodeID int32

	// The fabric totals below are set at the end of every Run* call — sums of
	// the per-switch and per-port counts, the shards' completion records in
	// serial order — so they are valid between Run* calls only; a GlobalTicker
	// callback reads the per-node counters.

	// Drops counts data frames lost fabric-wide.
	Drops metrics.Counter
	// PauseFrames counts PAUSE frames sent fabric-wide (Fig 3).
	PauseFrames metrics.Counter
	// LongPauses counts pause episodes exceeding Cfg.PFCLongPause — the
	// PFC-storm/deadlock risk signal of §2.3.
	LongPauses metrics.Counter
	// FCT collects completed flows (receiver-side completion).
	FCT *metrics.FCTCollector

	// Trace, when set, observes typed events fabric-wide: frame
	// transmissions, drops, enqueues/dequeues, ECN marks, PFC
	// pause/resume and sender rate changes (see TraceEventKind, and
	// internal/telemetry for the flight recorder). Every emit site
	// nil-checks this field, so the disabled path costs one predictable
	// branch; leave nil in performance-sensitive runs. Refused on more than
	// one shard (trace emission is not synchronized across shards).
	Trace func(ev TraceEvent)

	// sharding is the executor (see shard.go): one shard from New on, more
	// after ConfigureSharding, which must precede node creation.
	sharding *Sharding

	// nextPortUID numbers ports in creation order (see Port.uid).
	nextPortUID int32
}

// TraceEventKind discriminates trace records.
type TraceEventKind uint8

// Trace record kinds.
const (
	// TraceTx is a frame beginning serialization on a port.
	TraceTx TraceEventKind = iota
	// TraceDrop is a data frame lost to buffer exhaustion.
	TraceDrop
	// TraceEnqueue is a data frame appended to a switch egress queue.
	TraceEnqueue
	// TraceDequeue is a data frame leaving a switch egress queue.
	TraceDequeue
	// TraceMark is a data frame ECN-marked by the congestion-point hook.
	TraceMark
	// TracePause is a PFC PAUSE emitted toward an upstream device.
	TracePause
	// TraceResume is the matching PFC RESUME.
	TraceResume
	// TraceRateChange is a sender picking a new pacing rate for a flow
	// (Rate carries the new value in bits/s).
	TraceRateChange
)

var traceKindNames = [...]string{
	TraceTx:         "tx",
	TraceDrop:       "drop",
	TraceEnqueue:    "enq",
	TraceDequeue:    "deq",
	TraceMark:       "mark",
	TracePause:      "pause",
	TraceResume:     "resume",
	TraceRateChange: "rate",
}

// String returns the kind's short name as used in rendered traces.
func (k TraceEventKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// TraceEvent is one observation delivered to Network.Trace.
type TraceEvent struct {
	Kind TraceEventKind
	At   sim.Time
	// Node and Port locate the event (Port is -1 for drops at ingress).
	Node int32
	Port int
	// Packet summary (the packet itself is owned by the simulation).
	Type   packet.Type
	FlowID uint64
	Seq    int64
	Size   int
	// Rate is the new pacing rate for TraceRateChange events (bits/s).
	Rate int64
}

// New builds an empty network with the given configuration and scheme.
func New(cfg Config, scheme Scheme) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if scheme.NewSenderCC == nil || scheme.Receiver == nil {
		return nil, fmt.Errorf("netsim: scheme %q missing sender or receiver", scheme.Name)
	}
	n := &Network{
		Eng:         sim.NewEngine(),
		Pool:        packet.NewPool(),
		Rand:        sim.NewRNG(cfg.Seed),
		Cfg:         cfg,
		Scheme:      scheme,
		Drops:       metrics.Counter{Name: "drops"},
		PauseFrames: metrics.Counter{Name: "pause_frames"},
		LongPauses:  metrics.Counter{Name: "long_pauses"},
		FCT:         metrics.NewFCTCollector(),
		flowIDs:     make(map[uint64]struct{}),
		pathHops:    packet.MaxIntHops,
	}
	n.sharding = newSharding(n, 1, 1)
	return n, nil
}

// MustNew is New for tests and examples; it panics on error.
func MustNew(cfg Config, scheme Scheme) *Network {
	n, err := New(cfg, scheme)
	if err != nil {
		panic(err)
	}
	return n
}

func (n *Network) allocID() int32 {
	id := n.nextNodeID
	n.nextNodeID++
	return id
}

// NewHost adds a single-NIC end station to the current build shard.
func (n *Network) NewHost() *Host {
	sh := n.sharding.build
	h := &Host{id: n.allocID(), net: n, eng: sh.eng, pool: sh.pool, shard: sh}
	h.port = newPort(h, 0, n)
	h.port.onIdle = func(*Port) { h.trySend() }
	n.Hosts = append(n.Hosts, h)
	return h
}

// NewSwitch adds a switch with the given port count to the current build
// shard, installing the scheme's congestion-point hook.
func (n *Network) NewSwitch(ports int) *Switch {
	if ports < 1 {
		panic("netsim: switch needs at least one port")
	}
	sh := n.sharding.build
	s := &Switch{
		id:             n.allocID(),
		net:            n,
		eng:            sh.eng,
		pool:           sh.pool,
		ingressBytes:   make([]int64, ports),
		upstreamPaused: make([]bool, ports),
	}
	s.ports = make([]Port, ports)
	onDequeue := s.onPortDequeue // one method value for every port
	for i := range s.ports {
		s.ports[i] = newPort(s, i, n)
		s.ports[i].onDequeue = onDequeue
	}
	if n.Scheme.NewSwitchHook != nil {
		s.hook = n.Scheme.NewSwitchHook(s)
	} else {
		s.hook = NopHook{}
	}
	n.Switches = append(n.Switches, s)
	return s
}

// Flows returns all flows added so far.
func (n *Network) Flows() []*Flow { return n.flows }

// flowOf resolves a frame to its flow through the flow table: the slot the
// frame's QP number names, provided it holds the flow the frame's FlowID
// names (nil otherwise — a frame built without a QP, or for another network).
func (n *Network) flowOf(pkt *packet.Packet) *Flow {
	if uint(pkt.QP) < uint(len(n.flows)) {
		if f := n.flows[pkt.QP]; f.ID == pkt.FlowID {
			return f
		}
	}
	return nil
}

// FlowPorts returns the UDP port pair every frame of flow id carries, the
// flow's share of the ECMP 5-tuple. RoCEv2: destination port 4791; the
// source port varies per QP for ECMP entropy.
func FlowPorts(id uint64) (src, dst uint16) { return uint16(49152 + id%16384), 4791 }

// AddFlow registers a transfer of size bytes from src to dst starting at
// start. The flow's QP exists at both ends from start onward (the receiver
// counts it in N from that moment, matching Observation 4's "the transport
// layer at the receiver possesses the number of concurrencies"). Flow ids are
// unique across the network. The Flow comes from the network's chunks.
func (n *Network) AddFlow(id uint64, src, dst *Host, size int64, start sim.Time) *Flow {
	if src == dst {
		panic("netsim: flow with src == dst")
	}
	if size <= 0 {
		panic("netsim: non-positive flow size")
	}
	if _, dup := n.flowIDs[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate flow id %d", id))
	}
	n.flowIDs[id] = struct{}{}
	f := Take[Flow](n)
	*f = Flow{
		ID: id, SrcHost: src, DstHost: dst,
		SizeBytes: size,
		Start:     start,
		qp:        int32(len(n.flows)),
	}
	f.SrcPort, f.DstPort = FlowPorts(id)
	f.cc = n.Scheme.NewSenderCC(f)
	n.flows = append(n.flows, f)
	dst.shard.inbound++
	if src.shard != dst.shard {
		// Cross-shard flow: the activation event splits into a receiver half
		// and a sender half, each scheduled on its own shard's engine at the
		// same instant (they commute — their first interaction is the first
		// data frame, at least one propagation delay later). A same-shard
		// start stays one event: the bench digests pin the event counts.
		dst.eng.ScheduleArg(start, flowStartDst, f)
		src.eng.ScheduleArg(start, flowStartSrc, f)
	} else {
		src.eng.ScheduleArg(start, flowStart, f)
	}
	return f
}

// flowStart activates a flow at its start time: the QP becomes live at both
// ends and the sender is kicked.
func flowStart(v any) {
	f := v.(*Flow)
	flowStartReceiver(f)
	f.SrcHost.startFlow(f)
}

// flowStartSrc is the sender half of a cross-shard activation.
func flowStartSrc(v any) {
	f := v.(*Flow)
	f.SrcHost.startFlow(f)
}

// flowStartDst is the receiver half of a cross-shard activation. It counts
// itself as an extra start the moment it fires (not at AddFlow time) so
// TotalEngineStats stays exact at horizons before every flow has started.
func flowStartDst(v any) {
	f := v.(*Flow)
	atomic.AddUint64(&f.DstHost.net.sharding.extraStarts, 1)
	flowStartReceiver(f)
}

// flowStartReceiver makes the QP live at the destination (the receiver
// counts it in N from that moment; see AddFlow).
func flowStartReceiver(f *Flow) {
	dst := f.DstHost
	f.rcvLive = true
	dst.activeInbound++
	if pacer, ok := dst.net.Scheme.Receiver.(CreditPacer); ok {
		pacer.OnInboundStart(f, dst)
	}
}

// completeFlow records receiver-side completion on the host's shard; the
// record reaches Network.FCT at the next run boundary.
func (h *Host) completeFlow(f *Flow, at sim.Time) {
	h.shard.completed++
	h.shard.fct.Record(metrics.FCTRecord{
		FlowID:    f.ID,
		SizeBytes: f.SizeBytes,
		Start:     f.Start,
		Finish:    at,
		Ideal:     f.IdealFCT,
	})
}

// RunUntil drives the simulation to the given time. A panic raised by an
// event reaches the caller as a *WindowPanic.
func (n *Network) RunUntil(t sim.Time) { n.sharding.runUntil(t) }

// DeadlockSuspect identifies a port paused beyond the watchdog threshold at
// inspection time.
type DeadlockSuspect struct {
	Node      int32
	Port      int
	PausedFor sim.Time
}

// DeadlockSuspects scans all ports for any continuously paused longer than
// Cfg.PFCLongPause right now. A non-empty result after traffic should have
// drained indicates a cyclic buffer dependency — the PFC deadlock the
// paper's §2.3 warns about.
func (n *Network) DeadlockSuspects() []DeadlockSuspect {
	th := n.Cfg.PFCLongPause
	if th <= 0 {
		return nil
	}
	now := n.Eng.Now()
	var out []DeadlockSuspect
	scan := func(node Node) {
		for i := 0; i < node.NumPorts(); i++ {
			if d := node.PortAt(i).PausedFor(now); d >= th {
				out = append(out, DeadlockSuspect{Node: node.ID(), Port: i, PausedFor: d})
			}
		}
	}
	for _, h := range n.Hosts {
		scan(h)
	}
	for _, s := range n.Switches {
		scan(s)
	}
	return out
}

// AllDone reports whether every added flow has completed at the receiver. It
// compares counts, so RunToCompletion's per-slice check does not grow with
// the number of flows. It is valid at barriers (between Run* calls and inside
// GlobalTicker callbacks), like every cross-shard read.
func (n *Network) AllDone() bool {
	done := 0
	for _, sh := range n.sharding.shards {
		done += sh.completed
	}
	return done == len(n.flows)
}

// RunToCompletion alternates event processing with completion checks until
// all flows finish or the hard deadline passes; it returns true on full
// completion. Used by FCT experiments, which must drain the tail.
func (n *Network) RunToCompletion(deadline sim.Time) bool {
	const slice = 100 * sim.Microsecond
	for n.Eng.Now() < deadline {
		next := n.Eng.Now() + slice
		if next > deadline {
			next = deadline
		}
		n.RunUntil(next)
		if n.AllDone() {
			return true
		}
	}
	return n.AllDone()
}
