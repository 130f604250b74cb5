// Package packet defines the on-wire units exchanged by hosts and switches:
// RoCE-style data segments, ACKs carrying in-network telemetry (INT), DCQCN
// congestion-notification packets (CNPs), and PFC pause/resume frames.
//
// The struct layouts mirror the formats the paper describes: one INT hop
// record is the 64-bit {B, TS, txBytes, qLen} tuple of HPCC, and the FNCC
// ACK additionally carries the 16-bit concurrent-flow count N and the
// (nHop, pathID) pair of Fig 7.
package packet

import (
	"fmt"

	"repro/internal/sim"
)

// Type discriminates the frame kinds the simulator forwards.
type Type uint8

const (
	// Data is an application payload segment (RC RDMA Write traffic).
	Data Type = iota
	// Ack acknowledges data cumulatively and carries INT back to the sender.
	Ack
	// Nack requests go-back-N retransmission from an explicit sequence.
	Nack
	// Cnp is DCQCN's congestion notification packet.
	Cnp
	// PfcPause pauses the upstream transmitter (802.1Qbb).
	PfcPause
	// PfcResume releases a previously paused transmitter.
	PfcResume
	// Credit is a receiver-driven transmission grant (ExpressPass-style
	// schemes; §6's "receiver-driven notification" class). PayloadBytes
	// holds the granted byte count.
	Credit
)

// String implements fmt.Stringer for diagnostics.
func (t Type) String() string {
	switch t {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Nack:
		return "NACK"
	case Cnp:
		return "CNP"
	case PfcPause:
		return "PAUSE"
	case PfcResume:
		return "RESUME"
	case Credit:
		return "CREDIT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsControl reports whether the frame bypasses data queues (PFC frames are
// link-local control traffic transmitted at highest priority).
func (t Type) IsControl() bool { return t == PfcPause || t == PfcResume }

// Wire-size constants in bytes.
const (
	// DataHeaderBytes models Eth+IP+UDP+IB BTH framing of a RoCEv2 segment.
	DataHeaderBytes = 66
	// AckBaseBytes is an ACK before any INT hop records: L2+IP+UDP+BTH+AETH
	// plus FNCC's 16-bit N field and the 4-bit nHop / 12-bit pathID pair.
	AckBaseBytes = 64
	// IntHopBytes is one {B, TS, txBytes, qLen} record: 4+24+20+16 = 64 bits.
	IntHopBytes = 8
	// CnpBytes is the size of a DCQCN congestion notification packet.
	CnpBytes = 64
	// CreditBytes is the wire size of a credit grant (ExpressPass uses
	// minimum-size Ethernet frames).
	CreditBytes = 84
	// PfcFrameBytes is the size of an 802.1Qbb pause/resume frame.
	PfcFrameBytes = 64
	// MaxIntHops bounds the nHop field (4 bits in the Fig 7 layout).
	MaxIntHops = 15
)

// IntHop is the per-hop telemetry record.
//
// The paper's wire encoding packs it into 64 bits (Fig 7): 4-bit bandwidth
// code, 24-bit timestamp, 20-bit txBytes and 16-bit qLen, all wrapping, and
// IntHopBytes sizes frames by that layout. The simulator keeps the unwrapped
// values — the sender-side algorithms are defined on deltas, which the real
// hardware reconstructs from the wrapped fields; carrying full precision
// changes nothing observable.
type IntHop struct {
	// SwitchID identifies the stamping switch (contributes to pathID XOR).
	SwitchID int32
	// PortID is the stamped egress port on that switch.
	PortID int32
	// B is the port's link bandwidth in bits per second.
	B int64
	// TS is the switch timestamp when the record was captured.
	TS sim.Time
	// TxBytes is the cumulative byte count transmitted by the port.
	TxBytes uint64
	// QLen is the port's egress queue occupancy in bytes.
	QLen uint32
}

// HopOrdering says how a packet's Hops slice is indexed.
type HopOrdering uint8

const (
	// SenderToReceiver: Hops[0] is the first hop on the request path
	// (HPCC convention — switches append INT as the data packet travels).
	SenderToReceiver HopOrdering = iota
	// ReceiverToSender: Hops[0] is the LAST hop of the request path
	// (FNCC convention — the ACK accumulates INT on the return path, so the
	// switch nearest the receiver inserts first; Algorithm 3 line 25 indexes
	// the last-hop bandwidth as ack.L[0].B).
	ReceiverToSender
)

// Packet is a simulated frame. A single struct covers every Type; unused
// fields stay zero. Packets are passed by pointer and owned by exactly one
// queue or link at a time.
type Packet struct {
	Type Type

	// QP is the flow's slot in the simulation's flow table, the role the BTH
	// destination-QP number plays on a RoCE frame: the terminating NIC
	// indexes its QP context with it instead of hashing FlowID. Whoever
	// builds a Data/Ack/Nack/Cnp/Credit frame copies it from the flow. (It
	// sits here because it fits the padding after Type.)
	QP int32

	// FlowID identifies the flow (QP) for Data/Ack/Nack/Cnp frames.
	FlowID uint64

	// Src and Dst are end-host node IDs. Control frames (PFC) are link-local
	// and leave these zero.
	Src, Dst int32

	// SrcPort and DstPort complete the 5-tuple used for ECMP hashing.
	SrcPort, DstPort uint16

	// Seq is the first payload byte's sequence number (Data), or the
	// cumulative acknowledgment (Ack: all bytes < Seq received; Nack: resume
	// from Seq).
	Seq int64

	// PayloadBytes is the application data carried (Data only).
	PayloadBytes int

	// SendTime records when the sender injected the packet (for RTT/trace).
	SendTime sim.Time

	// ECN is the congestion-experienced codepoint (set by DCQCN marking).
	ECN bool

	// Hops carries INT records; see Ordering for indexing.
	Hops []IntHop
	// Ordering declares how Hops is indexed.
	Ordering HopOrdering

	// N is FNCC's concurrent-flow count written by the receiver (Ack only).
	N uint16

	// FairRateBps is RoCC's advertised fair rate: the minimum across
	// congested ports on the path; zero means "no advertisement".
	FairRateBps int64

	// AckedECN tells the sender the acked data had ECN marks (piggybacked
	// echo; DCQCN uses dedicated CNPs, this field supports ECN-echo
	// variants and tests).
	AckedECN bool

	// EchoTS echoes the acknowledged data packet's SendTime back to the
	// sender (RTT-based schemes like Timely need it; INT-based schemes
	// leave it zero).
	EchoTS sim.Time

	// InputPort is switch-local metadata: the port the frame arrived on.
	// Algorithm 1 line 3 records it so the egress engine can look up the
	// request-path INT for ACKs. It is rewritten at every switch.
	InputPort int32

	// pooled marks a packet currently resident in a Pool; Pool.Put uses it
	// to detect double releases (two owners for one frame).
	pooled bool
}

// SizeBytes returns the frame's wire size, including all INT records.
func (p *Packet) SizeBytes() int {
	switch p.Type {
	case Data:
		return DataHeaderBytes + p.PayloadBytes + len(p.Hops)*IntHopBytes
	case Ack, Nack:
		return AckBaseBytes + len(p.Hops)*IntHopBytes
	case Cnp:
		return CnpBytes
	case Credit:
		return CreditBytes
	case PfcPause, PfcResume:
		return PfcFrameBytes
	default:
		panic(fmt.Sprintf("packet: SizeBytes on unknown type %d", p.Type))
	}
}

// AddHop appends an INT record, enforcing the 4-bit nHop bound.
func (p *Packet) AddHop(h IntHop) {
	if len(p.Hops) >= MaxIntHops {
		panic(fmt.Sprintf("packet: more than %d INT hops", MaxIntHops))
	}
	p.Hops = append(p.Hops, h)
}

// NHop returns the number of INT records (Fig 7's nHop field).
func (p *Packet) NHop() int { return len(p.Hops) }

// PathID returns the XOR of stamping switch IDs (Fig 7's 12-bit pathID),
// which lets a sender detect that consecutive ACKs took different paths.
func (p *Packet) PathID() uint16 {
	var x uint16
	for i := range p.Hops {
		x ^= uint16(p.Hops[i].SwitchID) & 0x0fff
	}
	return x
}

// LastHop returns the INT record of the request path's final hop under the
// packet's declared ordering, and false if there are no hops.
func (p *Packet) LastHop() (IntHop, bool) {
	if len(p.Hops) == 0 {
		return IntHop{}, false
	}
	if p.Ordering == ReceiverToSender {
		return p.Hops[0], true
	}
	return p.Hops[len(p.Hops)-1], true
}

// HopAtDistanceFromSender returns the i-th hop counted from the sender,
// normalizing over Ordering. i must be in [0, NHop).
func (p *Packet) HopAtDistanceFromSender(i int) IntHop {
	if p.Ordering == ReceiverToSender {
		return p.Hops[len(p.Hops)-1-i]
	}
	return p.Hops[i]
}

// String renders a compact diagnostic form.
func (p *Packet) String() string {
	return fmt.Sprintf("%s flow=%d %d->%d seq=%d size=%dB hops=%d",
		p.Type, p.FlowID, p.Src, p.Dst, p.Seq, p.SizeBytes(), len(p.Hops))
}

// Clone deep-copies the packet (the Hops slice is not shared). Used where a
// frame logically forks, e.g. tracing.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pooled = false // the copy is owned by the caller, not any pool
	if p.Hops != nil {
		q.Hops = append([]IntHop(nil), p.Hops...)
	}
	return &q
}
