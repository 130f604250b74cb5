// Package netsim is the packet-level network substrate: hosts with paced,
// windowed RDMA-style flows; output-queued store-and-forward switches with
// shared-buffer accounting, ECMP routing and PFC; and links with explicit
// serialization and propagation delays.
//
// The package is congestion-control agnostic. A Scheme plugs the three
// algorithm locations the paper names into the substrate:
//
//   - SenderCC   — the Reaction Point (RP) at the sending host,
//   - ReceiverCC — the ACK Generation Point at the receiving host,
//   - SwitchHook — the Congestion Point (CP) behaviour at every switch.
//
// HPCC, DCQCN and RoCC live in internal/cc; FNCC (the paper's contribution)
// lives in internal/core. All of them implement these three interfaces.
//
// A Network runs on one executor (shard.go): its nodes belong to shards, one
// unless ConfigureSharding asks for more, and every Run* call is the same
// window loop over them. Build order: New -> [ConfigureSharding] ->
// [BuildShard ->] NewHost/NewSwitch -> Connect -> SetRule -> AddFlow -> Run*.
package netsim

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Config carries the fabric-wide constants of an experiment (§5 setup).
type Config struct {
	// MTUBytes is the maximum frame size (paper: 1518).
	MTUBytes int
	// BaseRTT is the fabric round-trip time used by window-based schemes
	// (HPCC's T). The topology builder computes it for the longest path.
	BaseRTT sim.Time
	// PFCEnabled turns priority flow control on (paper: on, threshold 500KB).
	PFCEnabled bool
	// PFCPauseBytes is the per-ingress-port byte threshold that triggers a
	// PAUSE toward the upstream device.
	PFCPauseBytes int64
	// PFCResumeBytes is the hysteresis level at which RESUME is sent; it
	// must be below PFCPauseBytes.
	PFCResumeBytes int64
	// SharedBufferBytes is a switch's total packet memory; data frames
	// arriving beyond it are dropped (only reachable with PFC disabled).
	SharedBufferBytes int64
	// NackMinGap rate-limits out-of-order NACKs per flow.
	NackMinGap sim.Time
	// RetxTimeout is the go-back-N backstop timer (0 disables).
	RetxTimeout sim.Time
	// Seed drives all stochastic fabric behaviour (WRED marking).
	Seed int64
	// PFCLongPause is the watchdog threshold: a port continuously
	// paused longer than this is counted in Network.LongPauses and
	// reported by DeadlockSuspects — the §2.3 "PFC deadlocks and PFC
	// storms" risk signal. Zero disables the watchdog.
	PFCLongPause sim.Time
}

// DefaultConfig returns the paper's evaluation constants.
func DefaultConfig() Config {
	return Config{
		MTUBytes:          1518,
		BaseRTT:           13 * sim.Microsecond, // dumbbell M=3 at 100G; topo overrides
		PFCEnabled:        true,
		PFCPauseBytes:     500 << 10, // 500 KB (§5.1)
		PFCResumeBytes:    450 << 10,
		SharedBufferBytes: 32 << 20,
		NackMinGap:        10 * sim.Microsecond,
		RetxTimeout:       4 * sim.Millisecond,
		PFCLongPause:      500 * sim.Microsecond,
	}
}

// PayloadBytes is the application payload carried by a full-MTU segment.
func (c Config) PayloadBytes() int { return c.MTUBytes - packet.DataHeaderBytes }

func (c Config) validate() error {
	switch {
	case c.PayloadBytes() <= 0:
		return fmt.Errorf("netsim: MTU %d does not fit headers", c.MTUBytes)
	case c.PFCEnabled && c.PFCResumeBytes >= c.PFCPauseBytes:
		return fmt.Errorf("netsim: PFC resume threshold must be below pause threshold")
	case c.SharedBufferBytes <= 0:
		return fmt.Errorf("netsim: non-positive shared buffer")
	}
	return nil
}

// Node is anything with ports: a Host or a Switch.
type Node interface {
	// ID is the fabric-unique node identifier. Hosts and switches share one
	// ID space so INT records and routing tables are unambiguous.
	ID() int32
	// Receive ingests a frame that finished propagating on inPort's link.
	Receive(pkt *packet.Packet, inPort int)
	// PortAt returns the i-th port.
	PortAt(i int) *Port
	// NumPorts returns the port count.
	NumPorts() int
}

// SenderCC is the per-flow Reaction Point algorithm at the sending host.
type SenderCC interface {
	// OnAck processes a cumulative acknowledgment (possibly carrying INT,
	// a fair-rate advertisement, or FNCC's N field). NACKs are delivered
	// here too: they carry the same telemetry as ACKs.
	OnAck(f *Flow, ack *packet.Packet, now sim.Time)
	// WindowBytes caps the flow's in-flight bytes. Rate-only schemes return
	// a huge value.
	WindowBytes() int64
	// RateBps is the pacing rate for the flow's next packet.
	RateBps() int64
}

// ReceiverCC is the ACK Generation Point behaviour.
type ReceiverCC interface {
	// FillAck populates scheme-specific ACK fields (INT echo for HPCC, the
	// concurrent-flow count N for FNCC, fair-rate echo for RoCC) before the
	// ACK is injected. data is the packet being acknowledged; host is the
	// acknowledging receiver.
	FillAck(ack, data *packet.Packet, host *Host)
}

// Observable is an optional SenderCC extension: a scheme that implements it
// exposes named internal state variables (e.g. DCQCN's alpha, Swift's scaled
// target delay) for time-series sampling by internal/telemetry. The contract
// is allocation-free sampling: TelemetryVars is called once at probe attach,
// TelemetrySample on every tick into a caller-owned scratch slice.
type Observable interface {
	// TelemetryVars names the exposed variables in sample order. The result
	// must be stable for the flow's lifetime.
	TelemetryVars() []string
	// TelemetrySample writes the current value of each variable into out,
	// which has at least len(TelemetryVars()) elements. Implementations must
	// not allocate or mutate scheme state.
	TelemetrySample(out []float64)
}

// CnpSink is an optional SenderCC extension for schemes that react to
// congestion notification packets (DCQCN): the host delivers each CNP that
// reaches a live flow here. A sender without it still counts the CNP
// (Host.CnpRx) and changes nothing else.
type CnpSink interface {
	// OnCnp processes one congestion notification.
	OnCnp(f *Flow, now sim.Time)
}

// CnpPacer is an optional ReceiverCC extension for schemes whose receiver
// answers ECN marks with CNPs (DCQCN). The host asks it for every
// ECN-marked data frame; a receiver without it never sends a CNP.
type CnpPacer interface {
	// WantCnp reports whether a CNP should be emitted for this data
	// packet. Pacing is the receiver's job.
	WantCnp(data *packet.Packet, host *Host, now sim.Time) bool
}

// CreditSink is an optional SenderCC extension for receiver-driven schemes:
// the host delivers arriving Credit frames here.
type CreditSink interface {
	// OnCredit reports a transmission grant of the given bytes.
	OnCredit(f *Flow, bytes int64, now sim.Time)
}

// CreditPacer is an optional ReceiverCC extension for receiver-driven
// schemes: the network notifies inbound QP lifecycle so the receiver can
// run per-flow credit pacing.
type CreditPacer interface {
	// OnInboundStart fires when an inbound QP becomes live at host.
	OnInboundStart(f *Flow, host *Host)
	// OnInboundDone fires when the inbound transfer completes.
	OnInboundDone(f *Flow, host *Host)
}

// SwitchHook is the per-switch Congestion Point behaviour.
type SwitchHook interface {
	// OnEnqueue fires after pkt is appended to outPort's egress queue.
	OnEnqueue(sw *Switch, pkt *packet.Packet, outPort int)
	// OnDequeue fires when pkt begins transmission on outPort, after queue
	// accounting has been updated (queue length excludes pkt).
	OnDequeue(sw *Switch, pkt *packet.Packet, outPort int)
}

// NopHook is a SwitchHook that does nothing (plain drop-tail fabric).
type NopHook struct{}

// OnEnqueue implements SwitchHook.
func (NopHook) OnEnqueue(*Switch, *packet.Packet, int) {}

// OnDequeue implements SwitchHook.
func (NopHook) OnDequeue(*Switch, *packet.Packet, int) {}

// Scheme bundles the three plug points of one congestion-control algorithm.
type Scheme struct {
	// Name labels output rows ("FNCC", "HPCC", "DCQCN", "RoCC").
	Name string
	// NewSenderCC builds the per-flow RP state. Called once per flow at
	// AddFlow time, where it may carve that state from the flow's network
	// (Take, TakeSlice) rather than allocate it.
	NewSenderCC func(f *Flow) SenderCC
	// Receiver is the (stateless or host-keyed) ACK generation behaviour.
	Receiver ReceiverCC
	// NewSwitchHook builds per-switch CP state; nil means NopHook.
	NewSwitchHook func(sw *Switch) SwitchHook
}
