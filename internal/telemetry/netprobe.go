package telemetry

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// NetProbe samples a packet-backend network on a fixed sim-time interval.
// All column storage and scratch state is sized before the first tick; each
// tick only reads counters and writes ring slots, so steady-state sampling
// is allocation-free. Attach after the fabric is wired and flows are added.
type NetProbe struct {
	rec  *Recorder
	net  *netsim.Network
	ival float64 // the interval in seconds
	stop func()

	// Flight recorder (nil unless cfg.TraceCap > 0).
	tr *flightRecorder

	// "queue": per port, queue_bytes then util.
	ports []portCols

	// "switch" and "host": cumulative counters, read into consecutive
	// columns from counterCol.
	counters   []func() float64
	counterCol int

	// "cc": per flow its rate plus optional Observable internals; in a
	// Watch, its rate or goodput.
	flows   []flowCols
	scratch []float64 // shared Observable sample buffer

	// A Watch's active_flows column and the figure metrics its rows fold into.
	active     []*netsim.Flow
	activeCol  int
	reductions []Reduction
}

type portCols struct {
	port     *netsim.Port
	col      int     // queue_bytes; util is col+1
	lastTx   uint64  // TxBytes at the previous tick
	fullBits float64 // line-rate bits per interval (util denominator)
}

type flowCols struct {
	f            *netsim.Flow
	col          int   // rate_bps, or goodput_bps
	goodput      bool  // col is the goodput: acked bits over the interval
	lastAcked    int64 // SndUna at the previous tick
	obs          netsim.Observable
	obsCol, obsN int
}

// AttachNet installs probes on n per cfg, with a ring sized for a run of
// the given span (see Samples). It returns nil when the config (nil
// included) asks for nothing. A positive cfg.TraceCap installs a flight
// recorder as n.Trace, replacing any previously installed sink.
func AttachNet(n *netsim.Network, cfg *Config, span sim.Time) *NetProbe {
	if !cfg.Enabled() {
		return nil
	}
	p := &NetProbe{rec: NewRecorder(cfg.Interval, Samples(span, cfg.Interval)), net: n, ival: cfg.Interval.Seconds()}
	if cfg.Has(ProbeQueue) {
		for _, sw := range n.Switches {
			for i := 0; i < sw.NumPorts(); i++ {
				if port := sw.PortAt(i); port.Peer() != nil {
					p.addPort(port)
				}
			}
		}
	}
	p.counterCol = len(p.rec.names)
	if cfg.Has(ProbeSwitch) {
		for _, sw := range n.Switches {
			p.count(fmt.Sprintf("sw%d/ecn_marks", sw.ID()), func() float64 { return float64(sw.EcnMarks) })
			p.count(fmt.Sprintf("sw%d/pause_tx", sw.ID()), func() float64 { return float64(sw.PauseFrames) })
			p.count(fmt.Sprintf("sw%d/resume_tx", sw.ID()), func() float64 { return float64(sw.ResumeFrames) })
			p.count(fmt.Sprintf("sw%d/drops", sw.ID()), func() float64 { return float64(sw.Drops) })
		}
	}
	if cfg.Has(ProbeHost) {
		for _, h := range n.Hosts {
			p.count(fmt.Sprintf("host%d/cnp_rx", h.ID()), func() float64 { return float64(h.CnpRx()) })
			p.count(fmt.Sprintf("host%d/retx", h.ID()), func() float64 { return float64(h.RetxEvents()) })
		}
	}
	if cfg.Has(ProbeCC) {
		maxVars := 0
		for _, f := range n.Flows() {
			fc := flowCols{f: f, col: p.rec.AddColumn("")}
			if fc.obs, _ = f.CC().(netsim.Observable); fc.obs != nil {
				vars := fc.obs.TelemetryVars()
				fc.obsCol, fc.obsN, maxVars = len(p.rec.names), len(vars), max(maxVars, len(vars))
				for _, v := range vars {
					p.rec.AddColumn(fmt.Sprintf("flow%d/cc/%s", f.ID, v))
				}
			}
			p.flows = append(p.flows, fc)
		}
		p.scratch = make([]float64, maxVars)
	}
	if len(p.rec.names) > 0 {
		p.stop = n.GlobalTicker(cfg.Interval, p.sample)
	}
	if cfg.TraceCap > 0 {
		p.tr = &flightRecorder{limit: cfg.TraceCap}
		n.Trace = p.tr.observe
	}
	return p
}

// Watch narrows a NetProbe to what a chain figure reads, at the figure's own
// interval: one port's "queue" columns, and per flow its pacing rate (the
// "cc" column, without scheme internals) or its goodput, plus how many of
// the flows have not finished. A row is [queue_bytes, util] when Port is
// set, then one column per flow, then active_flows when Active is set.
type Watch struct {
	Interval   sim.Time
	Port       *netsim.Port
	Flows      []*netsim.Flow
	Goodput    bool // flowN/goodput_bps instead of flowN/rate_bps
	Active     bool
	Reductions []Reduction // the figure metrics, folded in place
}

// AttachWatch installs w's probe on n, keeping the most recent capacity rows
// (one is enough for the reductions: they never read the ring back).
func AttachWatch(n *netsim.Network, w Watch, capacity int) *NetProbe {
	p := &NetProbe{rec: NewRecorder(w.Interval, capacity), net: n, ival: w.Interval.Seconds()}
	p.rec.names = make([]string, 0, 3+len(w.Flows))
	if w.Port != nil {
		p.addPort(w.Port)
	}
	p.flows = make([]flowCols, len(w.Flows))
	for i, f := range w.Flows {
		p.flows[i] = flowCols{f: f, col: p.rec.AddColumn(""), goodput: w.Goodput, lastAcked: f.SndUna()}
	}
	if w.Active {
		p.active, p.activeCol = w.Flows, p.rec.AddColumn("active_flows")
	}
	p.reductions = w.Reductions
	for i := range p.reductions {
		r := &p.reductions[i]
		r.Value, r.sum, r.rows = noRows[r.Reduce], 0, 0
	}
	p.stop = n.GlobalTicker(w.Interval, p.sample)
	return p
}

// addPort adds one port's queue_bytes and util columns.
func (p *NetProbe) addPort(port *netsim.Port) {
	p.ports = append(p.ports, portCols{port: port, col: p.rec.AddColumn(""), lastTx: port.TxBytes(),
		fullBits: float64(port.RateBps()) * p.ival})
	p.rec.AddColumn("")
}

// count adds a counter column.
func (p *NetProbe) count(name string, read func() float64) {
	p.rec.AddColumn(name)
	p.counters = append(p.counters, read)
}

// sample takes one tick: read every probed counter into the current ring
// slot, then fold the row into the reductions. Runs on the engine's ticker
// path; must not allocate.
func (p *NetProbe) sample() {
	now := p.net.Eng.Now()
	row := p.rec.Begin(now)
	for i := range p.ports {
		pc := &p.ports[i]
		row[pc.col] = float64(pc.port.QueueBytes())
		tx := pc.port.TxBytes()
		row[pc.col+1] = float64(tx-pc.lastTx) * 8 / pc.fullBits
		pc.lastTx = tx
	}
	for i, read := range p.counters {
		row[p.counterCol+i] = read()
	}
	for i := range p.flows {
		fc := &p.flows[i]
		if fc.goodput {
			acked := fc.f.SndUna()
			row[fc.col] = float64(acked-fc.lastAcked) * 8 / p.ival
			fc.lastAcked = acked
			continue
		}
		row[fc.col] = float64(fc.f.CC().RateBps())
		if fc.obs != nil {
			fc.obs.TelemetrySample(p.scratch)
			copy(row[fc.obsCol:fc.obsCol+fc.obsN], p.scratch)
		}
	}
	if p.active != nil {
		n := 0
		for _, f := range p.active {
			if !f.Finished() {
				n++
			}
		}
		row[p.activeCol] = float64(n)
	}
	for i := range p.reductions {
		p.reductions[i].fold(now, row)
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

// Output exports the retained sample window, trace events and, for a Watch,
// its reductions with the series each reads. Port and flow columns are
// named here rather than at attach: a Watch's rows fold into its metrics on
// every run but are exported only when the run has telemetry on.
func (p *NetProbe) Output() *Output {
	out := p.rec.Output()
	if p.tr != nil {
		out.TraceTotal = p.tr.total
		out.Trace = TraceRecords(p.tr.inOrder())
	}
	for _, pc := range p.ports {
		sw, i := pc.port.Owner().ID(), pc.port.Index()
		out.Series[pc.col].Name = fmt.Sprintf("sw%d/p%d/queue_bytes", sw, i)
		out.Series[pc.col+1].Name = fmt.Sprintf("sw%d/p%d/util", sw, i)
	}
	for _, fc := range p.flows {
		out.Series[fc.col].Name = fmt.Sprintf("flow%d/rate_bps", fc.f.ID)
		if fc.goodput {
			out.Series[fc.col].Name = fmt.Sprintf("flow%d/goodput_bps", fc.f.ID)
		}
	}
	for _, r := range p.reductions {
		for _, s := range out.Series[r.Col : r.Col+r.N] {
			r.Series = append(r.Series, s.Name)
		}
		out.Reductions = append(out.Reductions, r)
	}
	return out
}
