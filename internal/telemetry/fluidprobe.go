package telemetry

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/sim"
)

// FluidProbe samples a fluid-backend run: per-flow granted rate ("rate")
// and per-link occupancy ("link", the sum of occupant rates over the
// link's capacity). It installs itself as the Sim's probe callback, which
// the fluid event loop invokes at each sample instant; sampling evaluates
// the engine's lazy rate profiles read-only (Sim.RateAt) and reads link
// occupancy off the persistent per-link occupant sets (Sim.LinkRateBps)
// instead of recomputing it from every active flow's path. Attach after
// every AddFlow and before Run.
type FluidProbe struct {
	rec *Recorder
	sim *fluid.Sim

	flowCol map[uint64]int // flow ID -> rate column
	linkCol int            // link 0's occupancy column; link l's is linkCol+l
	linkBps []float64      // nil: no "link" probe
}

// AttachFluid installs probes on s per cfg, with a ring sized for a run of
// the given span (see Samples). It returns nil when the config (nil
// included) selects no fluid probe class.
func AttachFluid(s *fluid.Sim, cfg *Config, span sim.Time) *FluidProbe {
	if !cfg.Enabled() || (!cfg.Has(ProbeRate) && !cfg.Has(ProbeLink)) {
		return nil
	}
	p := &FluidProbe{rec: NewRecorder(cfg.Interval, Samples(span, cfg.Interval)), sim: s}
	if cfg.Has(ProbeRate) {
		flows := s.Flows()
		p.flowCol = make(map[uint64]int, len(flows))
		for _, f := range flows {
			p.flowCol[f.ID] = p.rec.AddColumn(fmt.Sprintf("flow%d/rate_bps", f.ID))
		}
	}
	if cfg.Has(ProbeLink) {
		p.linkBps, p.linkCol = s.Fabric().LinkBps, len(p.rec.names)
		for l := range p.linkBps {
			p.rec.AddColumn(fmt.Sprintf("link%d/occupancy", l))
		}
	}
	s.SetProbe(cfg.Interval, p.observe)
	return p
}

// observe is the Sim probe callback: record each active flow's rate at the
// probe instant and each link's occupancy. Flows not active this tick read
// as 0 (ring slots are zeroed).
func (p *FluidProbe) observe(now sim.Time, active []*fluid.Flow) {
	row := p.rec.Begin(now)
	for _, f := range active {
		if c, ok := p.flowCol[f.ID]; ok {
			row[c] = p.sim.RateAt(f, now)
		}
	}
	for l, bps := range p.linkBps {
		row[p.linkCol+l] = p.sim.LinkRateBps(l, now) / bps
	}
}

// Output exports the retained sample window.
func (p *FluidProbe) Output() *Output { return p.rec.Output() }
