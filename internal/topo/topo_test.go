package topo

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// fixedScheme gives the topology tests a CC-free substrate.
type fixedCC struct{ rate int64 }

func (c *fixedCC) OnAck(*netsim.Flow, *packet.Packet, sim.Time) {}
func (c *fixedCC) WindowBytes() int64                           { return 1 << 40 }
func (c *fixedCC) RateBps() int64                               { return c.rate }

type plainReceiver struct{}

func (plainReceiver) FillAck(ack, data *packet.Packet, _ *netsim.Host) {}

func fixedScheme(rate int64) netsim.Scheme {
	return netsim.Scheme{
		Name:        "fixed",
		NewSenderCC: func(*netsim.Flow) netsim.SenderCC { return &fixedCC{rate: rate} },
		Receiver:    plainReceiver{},
	}
}

func TestChainValidation(t *testing.T) {
	cfg := netsim.DefaultConfig()
	sch := fixedScheme(100e9)
	bad := []ChainOpts{
		{Switches: 0, SenderAttach: []int{0}, RateBps: 100e9, Delay: sim.Microsecond},
		{Switches: 3, SenderAttach: nil, RateBps: 100e9, Delay: sim.Microsecond},
		{Switches: 3, SenderAttach: []int{5}, RateBps: 100e9, Delay: sim.Microsecond},
		{Switches: 3, SenderAttach: []int{-1}, RateBps: 100e9, Delay: sim.Microsecond},
		{Switches: 3, SenderAttach: []int{0}, RateBps: 0, Delay: sim.Microsecond},
		{Switches: 3, SenderAttach: []int{0}, RateBps: -100e9, Delay: sim.Microsecond},
	}
	for i, o := range bad {
		if _, err := BuildChain(cfg, sch, o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestChainDumbbellDelivery(t *testing.T) {
	c := MustChain(netsim.DefaultConfig(), fixedScheme(100e9), DefaultChainOpts(2))
	if len(c.Switches) != 3 || len(c.Senders) != 2 {
		t.Fatal("wrong chain shape")
	}
	f0 := c.AddFlow(1, 0, 100_000, 0)
	f1 := c.AddFlow(2, 1, 100_000, 0)
	c.Net.RunUntil(5 * sim.Millisecond)
	if !f0.Done() || !f1.Done() {
		t.Fatal("dumbbell flows did not complete")
	}
	if f0.IdealFCT <= 0 {
		t.Fatal("IdealFCT not filled")
	}
	if c.Net.Drops.N != 0 {
		t.Fatalf("drops: %d", c.Net.Drops.N)
	}
}

func TestChainMidAndLastAttach(t *testing.T) {
	// Fig 11 variants: sender 1 attached at middle and last switch.
	for _, attach := range [][]int{{0, 1}, {0, 2}} {
		opts := DefaultChainOpts(2)
		opts.SenderAttach = attach
		c := MustChain(netsim.DefaultConfig(), fixedScheme(100e9), opts)
		f0 := c.AddFlow(1, 0, 50_000, 0)
		f1 := c.AddFlow(2, 1, 50_000, 0)
		c.Net.RunUntil(5 * sim.Millisecond)
		if !f0.Done() || !f1.Done() {
			t.Fatalf("attach=%v: flows incomplete", attach)
		}
		// Path lengths shrink with the attach point.
		if got := c.Opts.PathLinks(1); got != 3+1-attach[1] {
			t.Fatalf("attach=%v: PathLinks(1) = %d", attach, got)
		}
	}
}

func TestChainIdealFCTMatchesUnloadedRun(t *testing.T) {
	cfg := netsim.DefaultConfig()
	c := MustChain(cfg, fixedScheme(100e9), DefaultChainOpts(1))
	size := int64(10 * cfg.PayloadBytes())
	f := c.AddFlow(1, 0, size, 0)
	c.Net.RunUntil(5 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	got := f.FinishedAt - f.Start
	want := c.IdealFCT(0, size)
	// The analytic model must match an unloaded line-rate run to within an
	// MTU's serialization per hop.
	tol := 4 * sim.TxTime(cfg.MTUBytes, 100e9)
	if got < want-tol || got > want+tol {
		t.Fatalf("unloaded FCT %v vs ideal %v (tol %v)", got, want, tol)
	}
}

func TestChainBaseRTTSetAndPlausible(t *testing.T) {
	c := MustChain(netsim.DefaultConfig(), fixedScheme(100e9), DefaultChainOpts(2))
	rtt := c.Net.Cfg.BaseRTT
	// 4 links, 1.5us each way: >= 12us, and below 20us with serialization.
	if rtt < 12*sim.Microsecond || rtt > 20*sim.Microsecond {
		t.Fatalf("BaseRTT = %v", rtt)
	}
}

func TestFatTreeShape(t *testing.T) {
	ft := MustFatTree(netsim.DefaultConfig(), fixedScheme(100e9), FatTreeOpts{K: 4, RateBps: 100e9, Delay: sim.Microsecond})
	if len(ft.Hosts) != 16 || len(ft.Edge) != 8 || len(ft.Agg) != 8 || len(ft.Core) != 4 {
		t.Fatalf("k=4 shape: hosts=%d edge=%d agg=%d core=%d",
			len(ft.Hosts), len(ft.Edge), len(ft.Agg), len(ft.Core))
	}
	ft8 := MustFatTree(netsim.DefaultConfig(), fixedScheme(100e9), DefaultFatTreeOpts())
	if len(ft8.Hosts) != 128 || len(ft8.Core) != 16 || len(ft8.Edge) != 32 {
		t.Fatalf("k=8 shape: hosts=%d core=%d edge=%d", len(ft8.Hosts), len(ft8.Core), len(ft8.Edge))
	}
}

func TestFatTreeValidation(t *testing.T) {
	for _, k := range []int{0, 3, 5} {
		if _, err := BuildFatTree(netsim.DefaultConfig(), fixedScheme(100e9), FatTreeOpts{K: k, RateBps: 100e9, Delay: sim.Microsecond}); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	// A non-positive rate is an error, not a panic in the base-RTT formula.
	for _, rate := range []int64{0, -100e9} {
		if _, err := BuildFatTree(netsim.DefaultConfig(), fixedScheme(100e9), FatTreeOpts{K: 4, RateBps: rate, Delay: sim.Microsecond}); err == nil {
			t.Errorf("rate %d accepted", rate)
		}
	}
}

func TestFatTreePathLinks(t *testing.T) {
	ft := MustFatTree(netsim.DefaultConfig(), fixedScheme(100e9), FatTreeOpts{K: 4, RateBps: 100e9, Delay: sim.Microsecond})
	// k=4: hosts 0,1 share an edge; 0,2 share a pod; 0,4 cross pods.
	if got := ft.Opts.PathLinks(0, 1); got != 2 {
		t.Fatalf("same-edge links = %d", got)
	}
	if got := ft.Opts.PathLinks(0, 2); got != 4 {
		t.Fatalf("same-pod links = %d", got)
	}
	if got := ft.Opts.PathLinks(0, 4); got != 6 {
		t.Fatalf("cross-pod links = %d", got)
	}
}

func TestFatTreeAllPairsReachable(t *testing.T) {
	// k=4, a flow between every ordered pair of a representative subset
	// covering same-edge, same-pod, and cross-pod paths.
	ft := MustFatTree(netsim.DefaultConfig(), fixedScheme(100e9), FatTreeOpts{K: 4, RateBps: 100e9, Delay: sim.Microsecond})
	hosts := []int{0, 1, 2, 5, 8, 15}
	id := uint64(1)
	var flows []*netsim.Flow
	for _, s := range hosts {
		for _, d := range hosts {
			if s == d {
				continue
			}
			flows = append(flows, ft.AddFlow(id, s, d, 20_000, 0))
			id++
		}
	}
	ft.Net.RunUntil(20 * sim.Millisecond)
	for _, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d (%d->%d) incomplete", f.ID, f.SrcHost.ID(), f.DstHost.ID())
		}
	}
	if ft.Net.Drops.N != 0 {
		t.Fatalf("drops: %d", ft.Net.Drops.N)
	}
}

// Property: random pairs complete on a k=4 fat-tree (reachability under
// ECMP hashing for arbitrary flow IDs, which vary the hash).
func TestQuickFatTreeRandomPairs(t *testing.T) {
	f := func(seed int64) bool {
		ft := MustFatTree(netsim.DefaultConfig(), fixedScheme(100e9), FatTreeOpts{K: 4, RateBps: 100e9, Delay: sim.Microsecond})
		rng := sim.NewRNG(seed)
		var flows []*netsim.Flow
		for i := 0; i < 6; i++ {
			s := rng.Intn(16)
			d := rng.Intn(15)
			if d >= s {
				d++
			}
			flows = append(flows, ft.AddFlow(uint64(i+1), s, d, 10_000, 0))
		}
		ft.Net.RunUntil(20 * sim.Millisecond)
		for _, fl := range flows {
			if !fl.Done() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeECMPSpreadsLoad(t *testing.T) {
	// Many cross-pod flows should use more than one core switch.
	ft := MustFatTree(netsim.DefaultConfig(), fixedScheme(100e9), FatTreeOpts{K: 4, RateBps: 100e9, Delay: sim.Microsecond})
	for i := 0; i < 24; i++ {
		src := i % 4       // pod 0
		dst := 8 + (i % 8) // pod 2+
		ft.AddFlow(uint64(i+1), src, dst, 30_000, 0)
	}
	ft.Net.RunUntil(20 * sim.Millisecond)
	used := 0
	for _, core := range ft.Core {
		var tx uint64
		for p := 0; p < core.NumPorts(); p++ {
			tx += core.PortAt(p).TxDataBytes()
		}
		if tx > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d core switches carried traffic", used)
	}
}

func TestFatTreeOversubscribedCoreSlowsCrossPod(t *testing.T) {
	// 2:1 oversubscribed core: cross-pod traffic is throttled by the core
	// links, same-pod traffic is not. Both must still complete, and the
	// same-pod flow, which never crosses the slow core, finishes first.
	opts := FatTreeOpts{K: 4, RateBps: 100e9, CoreRateBps: 50e9, Delay: 1500 * sim.Nanosecond}
	ft := MustFatTree(netsim.DefaultConfig(), core.NewScheme(core.DefaultConfig()), opts)
	cross := ft.AddFlow(1, 0, 8, 2_000_000, 0) // pod 0 -> pod 2
	local := ft.AddFlow(2, 1, 2, 2_000_000, 0) // within pod 0
	ft.Net.RunToCompletion(100 * sim.Millisecond)
	if !cross.Done() || !local.Done() {
		t.Fatal("oversubscribed flows incomplete")
	}
	if local.FinishedAt >= cross.FinishedAt {
		t.Fatalf("local %v should beat cross-pod %v over a 2:1 core",
			local.FinishedAt, cross.FinishedAt)
	}
}

func TestIdealFCTMonotoneInSize(t *testing.T) {
	c := MustChain(netsim.DefaultConfig(), fixedScheme(100e9), DefaultChainOpts(1))
	prev := sim.Time(0)
	for _, size := range []int64{100, 1000, 10_000, 100_000, 1_000_000} {
		v := c.IdealFCT(0, size)
		if v <= prev {
			t.Fatalf("IdealFCT(%d) = %v not increasing", size, v)
		}
		prev = v
	}
}

// TestFatTreeHeapK32: the k=32 fat-tree (8,192 hosts, 1,280 switches) adds
// well under 64 MB of live heap, because its forwarding state is a rule per
// switch over tables shared per layer. A route per (switch, destination)
// puts it over 300 MB.
func TestFatTreeHeapK32(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ft := MustFatTree(netsim.DefaultConfig(), fixedScheme(100e9), FatTreeOpts{K: 32, RateBps: 100e9, Delay: sim.Microsecond})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ft)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 64<<20 {
		t.Fatalf("k=32 build holds %.1f MB live, want < 64 MB", float64(grown)/(1<<20))
	}
}

// BenchmarkFatTreeBuildK16 builds the k=16 packet fat-tree (1,024 hosts) and
// adds its first flow, whose INT state is sized by the PathHops the builder
// stated.
func BenchmarkFatTreeBuildK16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ft := MustFatTree(netsim.DefaultConfig(), fixedScheme(100e9), FatTreeOpts{K: 16, RateBps: 100e9, Delay: sim.Microsecond})
		ft.AddFlow(1, 0, 1, 1000, 0)
	}
}
