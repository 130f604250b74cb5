package netsim_test

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestPathHopsIsTheLongestRoute: the PathHops a builder states from its
// geometry is the most switches any routed host pair crosses, as the
// exhaustive walk finds it — five on a fat-tree of any arity or core rate
// (edge-agg-core-agg-edge), and on a chain every switch from the first one a
// sender attaches to — since that sizes every INT stack. A network wired by
// hand reads packet.MaxIntHops, and the value is fixed once a flow is in.
func TestPathHopsIsTheLongestRoute(t *testing.T) {
	sch := netsim.FixedScheme(100e9)
	for _, o := range []topo.FatTreeOpts{{K: 2}, {K: 4}, {K: 6}, {K: 8}, {K: 4, CoreRateBps: 25e9}} {
		o.RateBps, o.Delay = 100e9, sim.Microsecond
		ft := topo.MustFatTree(netsim.DefaultConfig(), sch, o)
		if got, walk := ft.Net.PathHops(), netsim.LongestRoute(ft.Net); got != 5 || walk != 5 {
			t.Errorf("fat-tree k=%d core %d bps: PathHops = %d, walk = %d, want 5", o.K, o.CoreRateBps, got, walk)
		}
	}

	// The attach lists a chain scenario writes (dumbbell and hop-first,
	// hop-middle, hop-last, incast all on the last switch, hop-middle on a
	// longer chain), a single switch, and senders out of order.
	for _, c := range []struct {
		switches int
		attach   []int
	}{
		{3, []int{0, 0}}, {3, []int{0, 1}}, {3, []int{0, 2}}, {3, []int{2, 2, 2, 2}},
		{5, []int{0, 2}}, {1, []int{0}}, {3, []int{2, 0, 1, 0}},
	} {
		ch := topo.MustChain(netsim.DefaultConfig(), sch, topo.ChainOpts{
			Switches: c.switches, SenderAttach: c.attach, RateBps: 100e9, Delay: sim.Microsecond,
		})
		if got, walk := ch.Net.PathHops(), netsim.LongestRoute(ch.Net); got != walk {
			t.Errorf("chain of %d, attach %v: PathHops = %d, walk = %d", c.switches, c.attach, got, walk)
		}
	}

	if got := netsim.MustNew(netsim.DefaultConfig(), sch).PathHops(); got != packet.MaxIntHops {
		t.Errorf("hand-wired PathHops = %d, want packet.MaxIntHops = %d", got, packet.MaxIntHops)
	}
	ch := topo.MustChain(netsim.DefaultConfig(), sch, topo.DefaultChainOpts(1))
	for _, h := range []int{0, packet.MaxIntHops + 1} {
		if msg := panicOf(func() { ch.Net.SetPathHops(h) }); msg == "" {
			t.Errorf("SetPathHops(%d) accepted", h)
		}
	}
	ch.AddFlow(1, 0, 1000, 0)
	if msg := panicOf(func() { ch.Net.SetPathHops(3) }); msg == "" {
		t.Error("SetPathHops after the first flow accepted")
	}
}

// panicOf runs f and returns what it panicked with, "" if it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
