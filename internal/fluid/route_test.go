package fluid

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
)

// routeIDs: the first IDs, the wrap of the RoCEv2 source port (16384 and
// 16385 reuse the ports of IDs 0 and 1), and a large ID.
var routeIDs = []uint64{1, 2, 16384, 16385, 1000000}

// flowPorts reads the UDP port pair the packet engine gives each of routeIDs
// off real flows, so the walks below hash exactly the tuple AddFlow writes.
func flowPorts(t *testing.T) map[uint64][2]uint16 {
	t.Helper()
	c := topo.MustChain(netsim.DefaultConfig(), core.NewScheme(core.DefaultConfig()), topo.DefaultChainOpts(1))
	ports := map[uint64][2]uint16{}
	for _, id := range routeIDs {
		f := c.AddFlow(id, 0, 1, 0)
		ports[id] = [2]uint16{f.SrcPort, f.DstPort}
	}
	return ports
}

// walk follows a data frame of the given tuple through the packet fabric
// hop by hop — Switch.RouteTo at every switch, then the link to the port's
// peer — and returns the directed links it crosses as named endpoint pairs.
func walk(t *testing.T, names map[int32]string, src, dst *netsim.Host, ports [2]uint16) [][2]string {
	t.Helper()
	pkt := &packet.Packet{Type: packet.Data, Src: src.ID(), Dst: dst.ID(), SrcPort: ports[0], DstPort: ports[1]}
	var links [][2]string
	var from netsim.Node = src
	port := src.Port()
	for {
		to := port.Peer().Owner()
		links = append(links, [2]string{names[from.ID()], names[to.ID()]})
		sw, ok := to.(*netsim.Switch)
		if !ok {
			if to != netsim.Node(dst) {
				t.Fatalf("%s->%s: frame delivered to %s", names[src.ID()], names[dst.ID()], names[to.ID()])
			}
			return links
		}
		if len(links) > 16 {
			t.Fatalf("%s->%s: routing loop %v", names[src.ID()], names[dst.ID()], links)
		}
		out, err := sw.RouteTo(pkt)
		if err != nil {
			t.Fatal(err)
		}
		from, port = sw, sw.PortAt(out)
	}
}

// fatTreeLink names the endpoints of fluid fat-tree link l by decoding the
// block layout NewFatTree documents. Switches are named by their index in
// topo.FatTree's Edge, Agg and Core slices.
func fatTreeLink(k, l int) [2]string {
	half, hosts := k/2, k*k*k/4
	e := k * half * half
	h := func(i int) string { return fmt.Sprintf("h%d", i) }
	ed := func(i int) string { return fmt.Sprintf("e%d", i) }
	ag := func(i int) string { return fmt.Sprintf("a%d", i) }
	co := func(i int) string { return fmt.Sprintf("c%d", i) }
	switch {
	case l < hosts: // host up; host i sits on edge i/half
		return [2]string{h(l), ed(l / half)}
	case l < 2*hosts:
		l -= hosts
		return [2]string{ed(l / half), h(l)}
	case l < 2*hosts+e: // (pod*half+e)*half + a
		l -= 2 * hosts
		return [2]string{ed(l / half), ag(l/half/half*half + l%half)}
	case l < 2*hosts+2*e:
		l -= 2*hosts + e
		return [2]string{ag(l/half/half*half + l%half), ed(l / half)}
	case l < 2*hosts+3*e: // (pod*half+a)*half + j; core a*half + j
		l -= 2*hosts + 2*e
		return [2]string{ag(l / half), co(l/half%half*half + l%half)}
	default:
		l -= 2*hosts + 3*e
		return [2]string{co(l/half%half*half + l%half), ag(l / half)}
	}
}

// TestFluidRouteIsPacketRoute: on fat-trees of every tier count and for
// every ordered host pair, the fluid route of a flow is the directed-link
// sequence the packet engine forwards that flow's frames over, link for
// link; the two backends agree on base RTT, path length and ideal FCT.
func TestFluidRouteIsPacketRoute(t *testing.T) {
	ports := flowPorts(t)
	cfg := DefaultConfig()
	sizes := []int64{1, int64(cfg.MTUBytes - packet.DataHeaderBytes), 1 << 20, 30 << 20}
	for _, k := range []int{2, 4, 8} {
		opts := topo.FatTreeOpts{K: k, RateBps: 100e9, CoreRateBps: 50e9, Delay: 1500 * sim.Nanosecond}
		ft := topo.MustFatTree(netsim.DefaultConfig(), core.NewScheme(core.DefaultConfig()), opts)
		fb, err := NewFatTree(cfg, FatTreeOpts{K: k, RateBps: 100e9, CoreRateBps: 50e9, Delay: 1500 * sim.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if fb.Hosts != len(ft.Hosts) {
			t.Fatalf("k=%d: fluid hosts %d, packet %d", k, fb.Hosts, len(ft.Hosts))
		}
		if fb.BaseRTT != ft.Net.Cfg.BaseRTT {
			t.Fatalf("k=%d: fluid base RTT %v, packet %v", k, fb.BaseRTT, ft.Net.Cfg.BaseRTT)
		}
		names := map[int32]string{}
		for i, h := range ft.Hosts {
			// Hosts double as ECMP addresses, so the fluid hash of host index
			// i is the packet hash only while host i has node ID i.
			if h.ID() != int32(i) {
				t.Fatalf("k=%d: host %d has node ID %d", k, i, h.ID())
			}
			names[h.ID()] = fmt.Sprintf("h%d", i)
		}
		for i := range ft.Edge {
			names[ft.Edge[i].ID()] = fmt.Sprintf("e%d", i)
			names[ft.Agg[i].ID()] = fmt.Sprintf("a%d", i)
		}
		for i, c := range ft.Core {
			names[c.ID()] = fmt.Sprintf("c%d", i)
		}
		for src := range ft.Hosts {
			for dst := range ft.Hosts {
				if src == dst {
					continue
				}
				for _, id := range routeIDs {
					want := walk(t, names, ft.Hosts[src], ft.Hosts[dst], ports[id])
					path, err := fb.route(nil, id, src, dst)
					if err != nil {
						t.Fatal(err)
					}
					got := make([][2]string, len(path))
					for i, l := range path {
						got[i] = fatTreeLink(k, int(l))
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("k=%d flow %d %d->%d: fluid route %v, packet route %v", k, id, src, dst, got, want)
					}
					if n := fb.PathLinks(src, dst); n != len(want) {
						t.Fatalf("k=%d %d->%d: fluid path length %d, packet %d", k, src, dst, n, len(want))
					}
				}
				for _, size := range sizes {
					if f, p := fb.IdealFCT(src, dst, size), ft.IdealFCT(src, dst, size); f != p {
						t.Fatalf("k=%d %d->%d size %d: fluid ideal FCT %v, packet %v", k, src, dst, size, f, p)
					}
				}
			}
		}
	}
}

// TestFluidChainRouteIsPacketRoute is the chain's counterpart, with a sender
// at every attach point.
func TestFluidChainRouteIsPacketRoute(t *testing.T) {
	ports := flowPorts(t)
	cfg := DefaultConfig()
	sizes := []int64{1, int64(cfg.MTUBytes - packet.DataHeaderBytes), 1 << 20, 30 << 20}
	for _, m := range []int{1, 3, 5} {
		attach := make([]int, m)
		for i := range attach {
			attach[i] = i
		}
		c := topo.MustChain(netsim.DefaultConfig(), core.NewScheme(core.DefaultConfig()), topo.ChainOpts{
			Switches: m, SenderAttach: attach, RateBps: 100e9, Delay: 1500 * sim.Nanosecond,
		})
		fb, err := NewChain(cfg, ChainOpts{Switches: m, SenderAttach: attach, RateBps: 100e9, Delay: 1500 * sim.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if fb.BaseRTT != c.Net.Cfg.BaseRTT {
			t.Fatalf("M=%d: fluid base RTT %v, packet %v", m, fb.BaseRTT, c.Net.Cfg.BaseRTT)
		}
		names := map[int32]string{c.Receiver.ID(): "r"}
		for i, s := range c.Senders {
			names[s.ID()] = fmt.Sprintf("s%d", i)
		}
		for i, sw := range c.Switches {
			names[sw.ID()] = fmt.Sprintf("w%d", i)
		}
		// Fluid chain links: sender i's access link, then switch h → h+1 at
		// senders+h, the last of which is the link to the receiver.
		senders := len(attach)
		link := func(l int) [2]string {
			if l < senders {
				return [2]string{fmt.Sprintf("s%d", l), fmt.Sprintf("w%d", attach[l])}
			}
			if h := l - senders; h < m-1 {
				return [2]string{fmt.Sprintf("w%d", h), fmt.Sprintf("w%d", h+1)}
			}
			return [2]string{fmt.Sprintf("w%d", m-1), "r"}
		}
		for si := range c.Senders {
			for _, id := range routeIDs {
				want := walk(t, names, c.Senders[si], c.Receiver, ports[id])
				path, err := fb.route(nil, id, si, senders)
				if err != nil {
					t.Fatal(err)
				}
				got := make([][2]string, len(path))
				for i, l := range path {
					got[i] = link(int(l))
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("M=%d flow %d sender %d: fluid route %v, packet route %v", m, id, si, got, want)
				}
				if n := fb.PathLinks(si, senders); n != len(want) {
					t.Fatalf("M=%d sender %d: fluid path length %d, packet %d", m, si, n, len(want))
				}
			}
			for _, size := range sizes {
				if f, p := fb.IdealFCT(si, senders, size), c.IdealFCT(si, size); f != p {
					t.Fatalf("M=%d sender %d size %d: fluid ideal FCT %v, packet %v", m, si, size, f, p)
				}
			}
		}
	}
}
