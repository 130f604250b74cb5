package telemetry

import (
	"fmt"

	"repro/internal/netsim"
)

// NetProbe samples a packet-backend network on a fixed sim-time interval.
// All column storage and scratch state is allocated in AttachNet; each tick
// only reads counters and writes ring slots, so steady-state sampling is
// allocation-free. Attach after the fabric is wired and flows are added.
type NetProbe struct {
	rec  *Recorder
	net  *netsim.Network
	stop func()

	// Flight recorder (nil unless cfg.TraceCap > 0).
	tr *flightRecorder

	// "queue": per wired switch port.
	ports    []*netsim.Port
	qCol     []int     // queue_bytes column per port
	uCol     []int     // util column per port
	lastTx   []uint64  // TxBytes at the previous tick
	fullBits []float64 // line-rate bits per interval (util denominator)

	// "switch": per switch, 4 consecutive columns from swCol.
	switches []*netsim.Switch
	swCol    []int

	// "host": per host, 2 consecutive columns from hostCol.
	hosts   []*netsim.Host
	hostCol []int

	// "cc": per flow rate plus optional Observable internals.
	flows   []*netsim.Flow
	rateCol []int
	obs     []netsim.Observable // nil entry: scheme not observable
	obsCol  []int
	obsN    []int
	scratch []float64 // shared Observable sample buffer
}

// AttachNet installs probes on n per cfg, with ring capacity slots (see
// Samples). It returns nil when the config asks for nothing. A positive
// cfg.TraceCap installs a flight recorder as n.Trace, replacing any
// previously installed sink.
func AttachNet(n *netsim.Network, cfg Config, capacity int) *NetProbe {
	if !cfg.Enabled() {
		return nil
	}
	p := &NetProbe{
		rec: NewRecorder(cfg.Interval, capacity),
		net: n,
	}
	if cfg.Has(ProbeQueue) {
		ival := cfg.Interval.Seconds()
		for _, sw := range n.Switches {
			for i := 0; i < sw.NumPorts(); i++ {
				port := sw.PortAt(i)
				if port.Peer() == nil {
					continue
				}
				p.ports = append(p.ports, port)
				p.qCol = append(p.qCol, p.rec.AddColumn(
					fmt.Sprintf("sw%d/p%d/queue_bytes", sw.ID(), i)))
				p.uCol = append(p.uCol, p.rec.AddColumn(
					fmt.Sprintf("sw%d/p%d/util", sw.ID(), i)))
				p.lastTx = append(p.lastTx, port.TxBytes())
				p.fullBits = append(p.fullBits, float64(port.RateBps())*ival)
			}
		}
	}
	if cfg.Has(ProbeSwitch) {
		for _, sw := range n.Switches {
			p.switches = append(p.switches, sw)
			base := p.rec.AddColumn(fmt.Sprintf("sw%d/ecn_marks", sw.ID()))
			p.rec.AddColumn(fmt.Sprintf("sw%d/pause_tx", sw.ID()))
			p.rec.AddColumn(fmt.Sprintf("sw%d/resume_tx", sw.ID()))
			p.rec.AddColumn(fmt.Sprintf("sw%d/drops", sw.ID()))
			p.swCol = append(p.swCol, base)
		}
	}
	if cfg.Has(ProbeHost) {
		for _, h := range n.Hosts {
			p.hosts = append(p.hosts, h)
			base := p.rec.AddColumn(fmt.Sprintf("host%d/cnp_rx", h.ID()))
			p.rec.AddColumn(fmt.Sprintf("host%d/retx", h.ID()))
			p.hostCol = append(p.hostCol, base)
		}
	}
	if cfg.Has(ProbeCC) {
		maxVars := 0
		for _, f := range n.Flows() {
			p.flows = append(p.flows, f)
			p.rateCol = append(p.rateCol, p.rec.AddColumn(
				fmt.Sprintf("flow%d/rate_bps", f.ID)))
			ob, _ := f.CC().(netsim.Observable)
			p.obs = append(p.obs, ob)
			if ob == nil {
				p.obsCol = append(p.obsCol, -1)
				p.obsN = append(p.obsN, 0)
				continue
			}
			vars := ob.TelemetryVars()
			base := -1
			for vi, v := range vars {
				c := p.rec.AddColumn(fmt.Sprintf("flow%d/cc/%s", f.ID, v))
				if vi == 0 {
					base = c
				}
			}
			p.obsCol = append(p.obsCol, base)
			p.obsN = append(p.obsN, len(vars))
			if len(vars) > maxVars {
				maxVars = len(vars)
			}
		}
		p.scratch = make([]float64, maxVars)
	}
	if len(p.rec.cols) > 0 {
		p.stop = n.GlobalTicker(cfg.Interval, p.sample)
	}
	if cfg.TraceCap > 0 {
		p.tr = &flightRecorder{limit: cfg.TraceCap}
		n.Trace = p.tr.observe
	}
	return p
}

// sample takes one tick: read every probed counter into the current ring
// slot. Runs on the engine's ticker path; must not allocate.
func (p *NetProbe) sample() {
	slot := p.rec.Begin(p.net.Eng.Now())
	for i, port := range p.ports {
		p.rec.Put(slot, p.qCol[i], float64(port.QueueBytes()))
		tx := port.TxBytes()
		p.rec.Put(slot, p.uCol[i], float64(tx-p.lastTx[i])*8/p.fullBits[i])
		p.lastTx[i] = tx
	}
	for i, sw := range p.switches {
		c := p.swCol[i]
		p.rec.Put(slot, c, float64(sw.EcnMarks))
		p.rec.Put(slot, c+1, float64(sw.PauseFrames))
		p.rec.Put(slot, c+2, float64(sw.ResumeFrames))
		p.rec.Put(slot, c+3, float64(sw.Drops))
	}
	for i, h := range p.hosts {
		c := p.hostCol[i]
		p.rec.Put(slot, c, float64(h.CnpRx()))
		p.rec.Put(slot, c+1, float64(h.RetxEvents()))
	}
	for i, f := range p.flows {
		p.rec.Put(slot, p.rateCol[i], float64(f.CC().RateBps()))
		if ob := p.obs[i]; ob != nil {
			ob.TelemetrySample(p.scratch)
			base := p.obsCol[i]
			for j := 0; j < p.obsN[i]; j++ {
				p.rec.Put(slot, base+j, p.scratch[j])
			}
		}
	}
}

// Stop halts sampling and detaches the flight recorder. Idempotent; call
// before reading Output so no tick lands mid-export.
func (p *NetProbe) Stop() {
	if p.stop != nil {
		p.stop()
		p.stop = nil
	}
	if p.tr != nil {
		p.net.Trace = nil
	}
}

// Samples returns how many ticks have fired so far.
func (p *NetProbe) Samples() int { return p.rec.Samples() }

// Output exports the retained sample window and trace events.
func (p *NetProbe) Output() *Output {
	out := p.rec.Output()
	if p.tr != nil {
		out.TraceTotal = p.tr.total
		out.Trace = TraceRecords(p.tr.inOrder())
	}
	return out
}
