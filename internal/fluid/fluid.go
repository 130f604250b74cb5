// Package fluid is the flow-level fast-approximation backend: instead of
// simulating every packet, ACK and queue, it models each active flow at a
// continuous rate over a capacitated link graph. Rates are the global
// max-min fair allocation (progressive water-filling), recomputed on the
// only two events that can change them — a flow arriving or finishing — so
// a whole run costs O(flows) rate recomputations instead of O(packets)
// events. Per-scheme fidelity comes from a first-order convergence model: a
// scheme's rate does not jump to its new fair share but approaches it
// exponentially with a time constant calibrated per scheme (FNCC's fast
// notification converges in a fraction of an RTT, DCQCN's delayed CNP
// feedback takes tens). Completion times feed the same metrics.FCTCollector
// the packet engine uses, so slowdown tables are directly comparable.
//
// The model is deliberately blind to everything queue-level: no PFC, no
// ECN marks, no drops, no incast microbursts shorter than an RTT. Use it
// for sweep breadth (FCT trends over loads, sizes, schemes, topologies) and
// the packet engine for ground truth; internal/scenario cross-validates the
// two on small scenarios.
package fluid

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config carries the wire format the fluid model shares with the packet
// engine, so byte-overhead accounting (and therefore ideal FCTs and
// slowdowns) match exactly.
type Config struct {
	// MTUBytes is the maximum frame size (paper: 1518).
	MTUBytes int
}

// DefaultConfig is netsim.DefaultConfig's wire format.
func DefaultConfig() Config { return Config{MTUBytes: netsim.DefaultConfig().MTUBytes} }

// payload is the application payload of a full-MTU segment, by the packet
// engine's definition.
func (c Config) payload() int { return netsim.Config{MTUBytes: c.MTUBytes}.PayloadBytes() }

func (c Config) validate() error {
	if c.payload() <= 0 {
		return fmt.Errorf("fluid: MTU %d does not fit headers", c.MTUBytes)
	}
	return nil
}

// wireBytes expands an application transfer to on-the-wire bytes, the
// expansion the packet engine performs one frame at a time.
func (c Config) wireBytes(size int64) int64 { return topo.WireBytes(size, c.payload()) }

// Model is a scheme's rate-convergence behavior in the fluid approximation.
type Model struct {
	// Tau is the first-order convergence time constant: after a fair-share
	// change a flow's rate closes the gap as 1-exp(-t/Tau). Zero means the
	// idealized instant max-min baseline.
	Tau sim.Time
}

// Instant is the idealized baseline: rates are always exactly max-min fair.
func Instant() Model { return Model{} }

// TauRTTs calibrates each congestion-control scheme's convergence lag in
// units of the fabric base RTT. The ordering is what matters (and what the
// packet engine reproduces): FNCC's switch-table fast notification reacts
// within a fraction of an RTT; ExpressPass credits settle in about one;
// HPCC's per-ACK INT takes a few; the delay-gradient and CNP-based schemes
// trail far behind. FNCC-noLHCS has no entry: the fluid model has no LHCS
// to ablate, so its run would be FNCC's under another name. scenario reads
// it to tell a fluid_tau_rtts override at the scheme's default.
var TauRTTs = map[string]float64{
	"FNCC":        0.5,
	"ExpressPass": 1,
	"HPCC":        2,
	"Swift":       4,
	"Timely":      6,
	"RoCC":        8,
	"DCQCN":       25,
}

// ModelFor returns the named scheme's convergence model on a fabric with
// the given base RTT. Scheme names are the exp registry's.
func ModelFor(scheme string, baseRTT sim.Time) (Model, error) {
	rtts, ok := TauRTTs[scheme]
	if !ok {
		var have []string
		for name := range TauRTTs {
			have = append(have, name)
		}
		sort.Strings(have)
		return Model{}, fmt.Errorf("fluid: no convergence model for scheme %q (have %v)", scheme, have)
	}
	return Model{Tau: sim.Time(rtts * float64(baseRTT))}, nil
}
