// Package telemetry is the in-simulation observability layer: time-series
// probes over both simulation backends plus an opt-in bounded event trace.
//
// The design constraint is zero cost when off and allocation-free when on:
// with no probe attached the substrates pay only nil-checked Trace branches
// and plain counter increments; with probes attached, every sample lands in
// a ring sized before the first tick, so steady-state sampling performs no
// allocation (enforced by tests and cmd/benchguard).
//
// Probe classes map to the two backends:
//
//   - packet (internal/netsim): "queue" (per-port queue depth and link
//     utilization), "switch" (ECN marks, PFC pause/resume, drops), "host"
//     (CNP receipts, go-back-N rewinds), "cc" (per-flow pacing rate plus
//     any netsim.Observable scheme internals such as DCQCN's alpha);
//   - fluid (internal/fluid): "rate" (per-flow granted rate), "link"
//     (per-link occupancy, the water-filling allocation over capacity).
//
// Event tracing ("trace_cap") rides netsim's typed Network.Trace stream and
// is therefore packet-only. A Watch is a packet chain figure's own probe: a
// few queue/cc columns whose rows fold into the figure's metrics
// (Reduction) as they are written.
package telemetry

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Probe class names. Packet classes sample netsim state; fluid classes
// sample the water-filling allocation.
const (
	ProbeQueue  = "queue"
	ProbeSwitch = "switch"
	ProbeHost   = "host"
	ProbeCC     = "cc"
	ProbeRate   = "rate"
	ProbeLink   = "link"
)

// PacketProbes returns the probe classes the packet backend supports.
func PacketProbes() []string {
	return []string{ProbeQueue, ProbeSwitch, ProbeHost, ProbeCC}
}

// FluidProbes returns the probe classes the fluid backend supports.
func FluidProbes() []string {
	return []string{ProbeRate, ProbeLink}
}

// AllProbes returns every probe class, packet first.
func AllProbes() []string {
	return append(PacketProbes(), FluidProbes()...)
}

// Config selects what a run samples. The zero value (and a nil pointer)
// means telemetry off.
type Config struct {
	// Interval is the sampling period in simulation time. Probing and
	// tracing both require it to be positive.
	Interval sim.Time
	// Probes lists the probe classes to sample (see the package constants).
	Probes []string
	// TraceCap, when positive, bounds an event flight-recorder over the
	// packet backend's Network.Trace stream (most recent events win).
	TraceCap int
}

// Enabled reports whether the config asks for any instrumentation.
// Nil-safe, so call sites can keep a *Config field and never branch twice.
func (c *Config) Enabled() bool {
	return c != nil && c.Interval > 0 && (len(c.Probes) > 0 || c.TraceCap > 0)
}

// Has reports whether the config selects the given probe class.
func (c *Config) Has(probe string) bool {
	return c != nil && slices.Contains(c.Probes, probe)
}

// Validate checks interval, trace bound and probe names against the given
// supported set (use PacketProbes or FluidProbes per backend).
func (c *Config) Validate(supported []string) error {
	if c == nil {
		return nil
	}
	if c.Interval <= 0 {
		return fmt.Errorf("telemetry: non-positive sample interval %v", c.Interval)
	}
	if c.TraceCap < 0 {
		return fmt.Errorf("telemetry: negative trace cap %d", c.TraceCap)
	}
	if len(c.Probes) == 0 && c.TraceCap == 0 {
		return fmt.Errorf("telemetry: no probes and no trace cap")
	}
	for _, p := range c.Probes {
		if !slices.Contains(supported, p) {
			sorted := slices.Clone(supported)
			slices.Sort(sorted)
			return fmt.Errorf("telemetry: unsupported probe %q (have %v)", p, sorted)
		}
	}
	return nil
}

// Samples sizes a Recorder for a run of the given span: one slot per
// interval plus slack, clamped to [1, 1<<20] so a misconfigured interval
// cannot demand unbounded memory (the ring keeps the most recent window).
func Samples(span, interval sim.Time) int {
	if interval <= 0 {
		return 1
	}
	return min(max(int(span/interval)+2, 1), 1<<20)
}
