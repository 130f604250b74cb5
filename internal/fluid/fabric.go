package fluid

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Fabric is a capacitated directed-link graph plus the routing that maps a
// flow to the links it traverses. Builders (NewChain, NewFatTree) fill it;
// the Sim only ever sees link indices, so any topology reduces to the same
// water-filling problem.
type Fabric struct {
	Cfg Config
	// LinkBps is the capacity of each directed link in bit/s.
	LinkBps []float64
	// Hosts is the number of end hosts (flow endpoints are host indices).
	Hosts int
	// AccessBps is the uniform host access-link rate, the serialization
	// rate of the ideal (unloaded) FCT model.
	AccessBps int64
	// Delay is the uniform per-link propagation delay.
	Delay sim.Time
	// BaseRTT is the longest-path round-trip, the time base for Model taus.
	BaseRTT sim.Time

	// route appends the directed links flow id traverses from src to dst to
	// path (the Sim's path arena) and returns the extended slice. The flow
	// id participates because ECMP fabrics hash it for path choice.
	route func(path []int32, id uint64, src, dst int) ([]int32, error)
	// pathLinks is the hop count between two hosts (for ideal FCT).
	pathLinks func(src, dst int) int
}

// PathLinks returns the link count between two hosts.
func (fb *Fabric) PathLinks(src, dst int) int { return fb.pathLinks(src, dst) }

// IdealFCT is the standalone completion time between two hosts, by the
// packet topologies' model (topo.IdealFCT), so fluid and packet slowdowns
// share a denominator.
func (fb *Fabric) IdealFCT(src, dst int, size int64) sim.Time {
	return topo.IdealFCT(size, fb.pathLinks(src, dst), fb.AccessBps, fb.Delay, fb.Cfg.payload())
}

// latencyOffset is the non-serialization part of the ideal FCT: per-hop
// store-and-forward of the last segment plus propagation. The fluid
// transfer time models serialization at the fluid rate; adding this offset
// makes an uncontended fluid flow's FCT equal its ideal FCT exactly.
func (fb *Fabric) latencyOffset(src, dst int, size int64) sim.Time {
	return fb.IdealFCT(src, dst, size) - sim.TxTime(int(fb.Cfg.wireBytes(size)), fb.AccessBps)
}

func (fb *Fabric) checkHost(h int) error {
	if h < 0 || h >= fb.Hosts {
		return fmt.Errorf("fluid: host %d out of range [0,%d)", h, fb.Hosts)
	}
	return nil
}
