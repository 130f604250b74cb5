package topo

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// FatTreeOpts parameterizes a three-level k-ary fat-tree (§5.5: k=8, 128
// servers, 100 Gbps everywhere, 1:1 oversubscription, 1.5 us links, ECMP on
// ToR and aggregation).
type FatTreeOpts struct {
	// K is the arity; k pods, (k/2)^2 core switches, k^3/4 hosts. Must be
	// even and >= 2.
	K int
	// RateBps is the access and edge-aggregation link rate.
	RateBps int64
	// CoreRateBps is the aggregation-core link rate; zero means RateBps
	// (the paper's 1:1 oversubscription). Setting it below RateBps
	// oversubscribes the core (e.g. RateBps/2 gives 2:1).
	CoreRateBps int64
	// Delay is the uniform propagation delay.
	Delay sim.Time
	// Workers > 1 partitions the network into one shard per pod plus a core
	// shard, executed by Workers goroutines. Results are bit-identical to
	// the one shard of Workers <= 1. The shard plan depends only on the
	// topology, not on Workers, so any two parallel worker counts are
	// identical by construction.
	Workers int
}

// CoreRate resolves the effective agg-core rate.
func (o FatTreeOpts) CoreRate() int64 {
	if o.CoreRateBps > 0 {
		return o.CoreRateBps
	}
	return o.RateBps
}

// Validate reports an arity or link rate no fabric can be built with.
func (o FatTreeOpts) Validate() error {
	switch {
	case o.K < 2 || o.K%2 != 0:
		return fmt.Errorf("topo: fat-tree arity %d must be even and >= 2", o.K)
	case o.RateBps <= 0:
		return fmt.Errorf("topo: non-positive link rate %d", o.RateBps)
	}
	return nil
}

// BaseRTT is the round trip of the longest (cross-pod, 6-link) path: both
// directions' propagation plus per-hop store-and-forward of one mtu-byte
// data frame and of an ACK carrying five INT hops.
func (o FatTreeOpts) BaseRTT(mtu int) sim.Time {
	mtuTx := sim.TxTime(mtu, o.RateBps)
	ackTx := sim.TxTime(packet.AckBaseBytes+5*packet.IntHopBytes, o.RateBps)
	return 6 * (2*o.Delay + mtuTx + ackTx)
}

// PathLinks returns the link count between two hosts: 2 within an edge, 4
// within a pod, 6 across pods.
func (o FatTreeOpts) PathLinks(src, dst int) int {
	half := o.K / 2
	if src/(half*half) != dst/(half*half) {
		return 6
	}
	if src/half != dst/half {
		return 4
	}
	return 2
}

// Plane is the equal-cost index every switch on flow id's path from src to
// dst hashes it to. Every ECMP set in the fabric has k/2 ports and every
// switch hashes the same tuple symmetrically — host indexes as addresses
// (BuildFatTree numbers hosts 0..H-1 first) and netsim.FlowPorts — so one
// index picks the uplink at the edge and the core at the aggregation layer,
// and the ACKs retrace the data's links.
func (o FatTreeOpts) Plane(id uint64, src, dst int) int {
	sp, dp := netsim.FlowPorts(id)
	h := packet.SymmetricHash(packet.FiveTuple{
		SrcAddr: int32(src), DstAddr: int32(dst), SrcPort: sp, DstPort: dp, Proto: 17,
	})
	return int(h % uint64(o.K/2))
}

// DefaultFatTreeOpts is the paper's large-scale setup.
func DefaultFatTreeOpts() FatTreeOpts {
	return FatTreeOpts{K: 8, RateBps: 100e9, Delay: 1500 * sim.Nanosecond}
}

// FatTree is a built fat-tree.
type FatTree struct {
	Net   *netsim.Network
	Opts  FatTreeOpts
	Hosts []*netsim.Host
	Edge  []*netsim.Switch // k/2 per pod, pod-major order
	Agg   []*netsim.Switch // k/2 per pod, pod-major order
	Core  []*netsim.Switch // (k/2)^2
}

// BuildFatTree constructs the fabric with ECMP routes, and a BaseRTT and
// PathHops sized for the longest (cross-pod) path.
func BuildFatTree(cfg netsim.Config, scheme netsim.Scheme, opts FatTreeOpts) (*FatTree, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	k := opts.K
	half := k / 2
	cfg.BaseRTT = opts.BaseRTT(cfg.MTUBytes)

	n, err := netsim.New(cfg, scheme)
	if err != nil {
		return nil, err
	}
	ft := &FatTree{Net: n, Opts: opts}

	// Shard plan for parallel execution: pod p owns its hosts, edges and
	// aggs (shard p); every core switch lands in shard k. All cross-shard
	// links (agg-core) carry opts.Delay, which becomes the lookahead. With
	// one worker the network stays the one shard netsim.New made.
	place := func(int) {}
	if opts.Workers > 1 {
		n.ConfigureSharding(k+1, opts.Workers)
		place = n.BuildShard
	}

	nHosts := k * k * k / 4
	for i := 0; i < nHosts; i++ {
		place(i / (half * half)) // host's pod
		ft.Hosts = append(ft.Hosts, n.NewHost())
	}
	for i := 0; i < k*half; i++ {
		place(i / half)                           // pod of edge/agg pair i
		ft.Edge = append(ft.Edge, n.NewSwitch(k)) // half hosts + half aggs
		ft.Agg = append(ft.Agg, n.NewSwitch(k))   // half edges + half cores
	}
	place(k)
	for i := 0; i < half*half; i++ {
		ft.Core = append(ft.Core, n.NewSwitch(k)) // one port per pod
	}

	// Wiring. Edge e in pod p: hosts on ports 0..half-1, aggs on half..k-1.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			edge := ft.Edge[pod*half+e]
			for hIdx := 0; hIdx < half; hIdx++ {
				host := ft.Hosts[pod*half*half+e*half+hIdx]
				netsim.Connect(host.Port(), edge.PortAt(hIdx), opts.RateBps, opts.Delay)
			}
			for a := 0; a < half; a++ {
				agg := ft.Agg[pod*half+a]
				netsim.Connect(edge.PortAt(half+a), agg.PortAt(e), opts.RateBps, opts.Delay)
			}
		}
		// Agg a in pod: edges on ports 0..half-1 (wired above), cores on
		// half..k-1. Core index c = a*half + j attaches to pod's agg a.
		for a := 0; a < half; a++ {
			agg := ft.Agg[pod*half+a]
			for j := 0; j < half; j++ {
				core := ft.Core[a*half+j]
				netsim.Connect(agg.PortAt(half+j), core.PortAt(pod), opts.CoreRate(), opts.Delay)
			}
		}
	}

	// Forwarding rules. Hosts are node ids 0..H-1, so a switch's window is
	// the host range below it: an edge reaches its own hosts on ports
	// 0..half-1, an agg its pod's hosts by edge, a core every host by pod.
	// Any other destination hashes over the uplinks half..k-1. SetRule keeps
	// the slices it is given, so every switch of a layer shares its tables.
	ports := make([]int, k)
	for i := range ports {
		ports[i] = i
	}
	aggDown := make([]int, half*half)
	for j := range aggDown {
		aggDown[j] = j / half
	}
	coreDown := make([]int, nHosts)
	for h := range coreDown {
		coreDown[h] = h / (half * half)
	}
	for i := range ft.Edge {
		ft.Edge[i].SetRule(int32(i*half), ports[:half], ports[half:])
		ft.Agg[i].SetRule(int32(i/half*half*half), aggDown, ports[half:])
	}
	for _, core := range ft.Core {
		core.SetRule(0, coreDown, nil)
	}
	// The longest route crosses pods: edge, agg, core, agg, edge.
	n.SetPathHops(5)
	return ft, nil
}

// MustFatTree is BuildFatTree that panics on error.
func MustFatTree(cfg netsim.Config, scheme netsim.Scheme, opts FatTreeOpts) *FatTree {
	ft, err := BuildFatTree(cfg, scheme, opts)
	if err != nil {
		panic(err)
	}
	return ft
}

// IdealFCT computes the standalone completion time between two hosts.
func (ft *FatTree) IdealFCT(src, dst int, size int64) sim.Time {
	return IdealFCT(size, ft.Opts.PathLinks(src, dst), ft.Opts.RateBps, ft.Opts.Delay, ft.Net.Cfg.PayloadBytes())
}

// AddFlow wires a workload flow between host indexes with IdealFCT filled.
func (ft *FatTree) AddFlow(id uint64, src, dst int, size int64, start sim.Time) *netsim.Flow {
	f := ft.Net.AddFlow(id, ft.Hosts[src], ft.Hosts[dst], size, start)
	f.IdealFCT = ft.IdealFCT(src, dst, size)
	return f
}
