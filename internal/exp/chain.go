package exp

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// PacketChain is the packet-level chain of Figs 10/11 as a Fabric: hosts
// 0..N-1 are the senders, host N the receiver every flow must end on. The
// chain figures plot what happens inside the fabric while the flows run, so
// the built topology and the offered flows are readable to pick the port and
// flows a figure watches, and Run attaches that Watch as a telemetry probe.
// Watching is not part of Fabric: the fluid model has no queue to sample and
// the fat-tree kinds need none.
type PacketChain struct {
	// Chain is the built topology.
	Chain *topo.Chain
	// Flows are the offered flows, in AddFlow order.
	Flows []*netsim.Flow
	// Watch is the figure probe Run attaches ahead of any telemetry block's
	// probes; set it before Run. Its rows are kept, as the output's Figure,
	// only when the run has telemetry on: otherwise its ring holds one row.
	Watch telemetry.Watch
	// Hold makes Run simulate up to the deadline even after the last flow
	// has finished: a figure that plots a time window watches the drained
	// fabric too, where a burst's run ends with its last completion.
	Hold bool
}

// NewPacketChain builds the chain under cfg with scheme installed.
func NewPacketChain(scheme netsim.Scheme, cfg netsim.Config, opts topo.ChainOpts) (*PacketChain, error) {
	c, err := topo.BuildChain(cfg, scheme, opts)
	if err != nil {
		return nil, err
	}
	return &PacketChain{Chain: c}, nil
}

func (p *PacketChain) Hosts() int { return len(p.Chain.Senders) + 1 }

func (p *PacketChain) AddFlow(fs workload.FlowSpec) error {
	if n := len(p.Chain.Senders); fs.SrcHost < 0 || fs.SrcHost >= n || fs.DstHost != n {
		return fmt.Errorf("exp: chain flow %d goes %d -> %d; senders are hosts 0..%d and host %d is the only receiver",
			fs.ID, fs.SrcHost, fs.DstHost, n-1, n)
	}
	p.Flows = append(p.Flows, p.Chain.AddFlow(fs.ID, fs.SrcHost, fs.SizeBytes, fs.Start))
	return nil
}

func (p *PacketChain) Run(deadline sim.Time, tel *telemetry.Config) FlowsResult {
	net := p.Chain.Net
	rows := 1
	if tel.Enabled() {
		rows = telemetry.Samples(deadline, p.Watch.Interval)
	}
	fig := telemetry.AttachWatch(net, p.Watch, rows)
	tp := telemetry.AttachNet(net, tel, deadline)
	var done bool
	if p.Hold {
		net.RunUntil(deadline)
		done = net.AllDone()
	} else {
		done = net.RunToCompletion(deadline)
	}
	fig.Stop()
	res := packetResult(net, done, tp)
	if res.Telemetry != nil {
		res.Telemetry.Figure = fig.Output()
	}
	return res
}

// FairShareBytes integrates flow i's fair share of the link across the
// Fig 13e membership schedule: n flows, flow i joining at i*s and — once
// everyone has joined — exiting in join order, again one per s. Sized so, a
// line-rate elephant trimmed by a fair CC completes near its exit time.
func FairShareBytes(n, i int, s sim.Time, rateBps int64) int64 {
	bytesPerWindow := float64(rateBps) / 8 * s.Seconds()
	total := 0.0
	// Windows are [k*S, (k+1)*S); flow i is active for k in [i, n+i).
	for k := i; k < n+i; k++ {
		active := 0
		for j := 0; j < n; j++ {
			if k >= j && k < n+j {
				active++
			}
		}
		if active > 0 {
			total += bytesPerWindow / float64(active)
		}
	}
	return int64(total)
}
