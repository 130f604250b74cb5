package fluid

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// testFabric hand-builds a fabric over explicit links so max-min properties
// can be checked against closed forms, independent of topology builders.
func testFabric(linkBps []float64, routes map[[2]int][]int) *Fabric {
	fb := &Fabric{
		Cfg:       DefaultConfig(),
		LinkBps:   linkBps,
		Hosts:     8,
		AccessBps: 100e9,
		Delay:     1500 * sim.Nanosecond,
		BaseRTT:   13 * sim.Microsecond,
	}
	fb.route = func(path []int32, id uint64, src, dst int) ([]int32, error) {
		for _, l := range routes[[2]int{src, dst}] {
			path = append(path, int32(l))
		}
		return path, nil
	}
	fb.pathLinks = func(src, dst int) int { return len(routes[[2]int{src, dst}]) }
	return fb
}

// TestWaterfillClassic pins the textbook max-min example: flow A on link 0
// (cap 1), flow B on links 0+1 (caps 1, 2), flow C on link 1. Progressive
// filling gives A=B=0.5 (link 0 bottleneck) and C=1.5 (link 1 remainder).
// Both solvers — the global full pass and the worklist relaxation from a
// cold start — must land on that fixed point.
func TestWaterfillClassic(t *testing.T) {
	build := func() (*Sim, [3]*Flow) {
		fb := testFabric([]float64{1, 2}, map[[2]int][]int{
			{0, 4}: {0}, {1, 5}: {0, 1}, {2, 6}: {1},
		})
		s := NewSim(fb, Instant())
		a, _ := s.AddFlow(1, 0, 4, 1000, 0)
		b, _ := s.AddFlow(2, 1, 5, 1000, 0)
		c, _ := s.AddFlow(3, 2, 6, 1000, 0)
		s.prepare()
		for _, f := range []*Flow{a, b, c} {
			s.activate(f, 0)
		}
		return s, [3]*Flow{a, b, c}
	}
	check := func(label string, fl [3]*Flow) {
		for i, want := range []float64{0.5, 0.5, 1.5} {
			if got := fl[i].target; math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: flow %d target %g, want %g", label, fl[i].ID, got, want)
			}
		}
	}
	s, fl := build()
	s.fullPass(0)
	check("fullPass", fl)
	s, fl = build()
	if !s.relax(0) {
		t.Fatal("relax overran its budget on a three-flow network")
	}
	check("relax", fl)
}

// TestSingleFlowHitsIdeal: an uncontended fluid flow must complete in
// exactly its ideal FCT (slowdown 1), the calibration that anchors fluid
// slowdowns to the packet engine's denominator.
func TestSingleFlowHitsIdeal(t *testing.T) {
	fb, err := NewFatTree(DefaultConfig(), FatTreeOpts{K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{999, 100_000, 5 << 20} {
		s := NewSim(fb, Instant())
		if _, err := s.AddFlow(1, 0, 9, size, 0); err != nil {
			t.Fatal(err)
		}
		res := s.Run(sim.Second)
		if res.Completed != 1 {
			t.Fatalf("size %d: flow did not complete", size)
		}
		r := res.FCT.Records[0]
		got, want := r.FCT(), fb.IdealFCT(0, 9, size)
		// FromSeconds round-trips through float64 seconds: allow 1ns.
		if d := got - want; d < -sim.Nanosecond || d > sim.Nanosecond {
			t.Errorf("size %d: FCT %v, ideal %v", size, got, want)
		}
		if s := r.Slowdown(); s != 1 {
			t.Errorf("size %d: slowdown %g, want exactly 1", size, s)
		}
	}
}

// TestIncastSharesEqually: N chain senders behind one receiver link each
// get rate/N under instant max-min, so the burst completes in N times one
// flow's serialization plus the path latency.
func TestIncastSharesEqually(t *testing.T) {
	const fanout, size = 8, int64(1 << 20)
	attach := make([]int, fanout)
	for i := range attach {
		attach[i] = 2
	}
	fb, err := NewChain(DefaultConfig(), ChainOpts{
		Switches: 3, SenderAttach: attach, RateBps: 100e9, Delay: 1500 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(fb, Instant())
	for i := 0; i < fanout; i++ {
		if _, err := s.AddFlow(uint64(i+1), i, fanout, size, 0); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Run(sim.Second)
	if res.Completed != fanout {
		t.Fatalf("completed %d/%d", res.Completed, fanout)
	}
	wire := fb.Cfg.wireBytes(size)
	serial := sim.FromSeconds(float64(fanout) * 8 * float64(wire) / 100e9)
	want := serial + fb.latencyOffset(0, fanout, size)
	for _, r := range res.FCT.Records {
		if d := r.FCT() - want; d < -10*sim.Nanosecond || d > 10*sim.Nanosecond {
			t.Errorf("flow %d FCT %v, want %v", r.FlowID, r.FCT(), want)
		}
	}
}

// TestConvergenceLagSlowsRampUp: with a finished flow freeing capacity, a
// laggy scheme ramps to the new share slowly, so the survivor's FCT must
// exceed the instant baseline's — and a larger tau must cost more.
func TestConvergenceLagSlowsRampUp(t *testing.T) {
	run := func(model Model) sim.Time {
		fb, err := NewChain(DefaultConfig(), ChainOpts{
			Switches: 3, SenderAttach: []int{0, 0}, RateBps: 100e9, Delay: 1500 * sim.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := NewSim(fb, model)
		s.AddFlow(1, 0, 2, 4<<20, 0) // long flow
		s.AddFlow(2, 1, 2, 1<<20, 0) // short flow finishes first
		res := s.Run(sim.Second)
		if res.Completed != 2 {
			t.Fatal("flows did not complete")
		}
		for _, r := range res.FCT.Records {
			if r.FlowID == 1 {
				return r.FCT()
			}
		}
		t.Fatal("flow 1 missing")
		return 0
	}
	instant := run(Instant())
	fast := run(Model{Tau: 10 * sim.Microsecond})
	slow := run(Model{Tau: 200 * sim.Microsecond})
	if !(instant < fast && fast < slow) {
		t.Errorf("long-flow FCT ordering violated: instant %v, fast %v, slow %v", instant, fast, slow)
	}
}

// TestDeterminism: identical flow sets produce bit-identical records.
func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		fb, err := NewFatTree(DefaultConfig(), FatTreeOpts{K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		s := NewSim(fb, Model{Tau: 20 * sim.Microsecond})
		for i := 0; i < 16; i++ {
			s.AddFlow(uint64(i+1), i, (i+5)%16, int64(50_000+i*7777), sim.Time(i)*sim.Microsecond)
		}
		res := s.Run(sim.Second)
		out := make([]float64, 0, res.Completed)
		res.FCT.SortByStart()
		for _, r := range res.FCT.Records {
			out = append(out, r.Slowdown())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("completed %d/%d flows, want 16", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs across identical runs: %x vs %x", i, a[i], b[i])
		}
	}
}

// TestDeadline: flows that cannot finish by the deadline are not recorded
// and the run reports the shortfall.
func TestDeadline(t *testing.T) {
	fb, err := NewChain(DefaultConfig(), ChainOpts{
		Switches: 3, SenderAttach: []int{0, 0}, RateBps: 100e9, Delay: 1500 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(fb, Instant())
	s.AddFlow(1, 0, 2, 1<<30, 0) // ~86ms at shared 50G
	s.AddFlow(2, 1, 2, 1<<30, 0)
	res := s.Run(sim.Millisecond)
	if res.Completed != 0 || res.Generated != 2 {
		t.Errorf("completed %d/%d, want 0/2", res.Completed, res.Generated)
	}
}

// TestModelFor covers every scheme in tauRTTs (exp's TestSchemeRegistry holds
// that list to the registry) and pins the ordering that makes the lag model
// meaningful: FNCC's fast notification converges faster than HPCC's per-ACK
// INT, which beats DCQCN's CNPs.
func TestModelFor(t *testing.T) {
	const rtt = 13 * sim.Microsecond
	taus := map[string]sim.Time{}
	for name := range tauRTTs {
		m, err := ModelFor(name, rtt)
		if err != nil {
			t.Fatalf("ModelFor(%q): %v", name, err)
		}
		if m.Tau <= 0 {
			t.Errorf("scheme %q has non-positive tau %v", name, m.Tau)
		}
		taus[name] = m.Tau
	}
	if !(taus["FNCC"] < taus["HPCC"] && taus["HPCC"] < taus["DCQCN"]) {
		t.Errorf("tau ordering violated: FNCC %v, HPCC %v, DCQCN %v",
			taus["FNCC"], taus["HPCC"], taus["DCQCN"])
	}
	if _, err := ModelFor("TCP", rtt); err == nil {
		t.Error("ModelFor accepted an unknown scheme")
	}
}

// TestFatTreeRouting: paths have the right length per host-pair locality,
// stay within link-index bounds, and never use a down link in the up
// direction (indices are block-structured, so block membership checks it).
func TestFatTreeRouting(t *testing.T) {
	const k = 4
	fb, err := NewFatTree(DefaultConfig(), FatTreeOpts{K: k, RateBps: 100e9, Delay: 1500 * sim.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	hosts := k * k * k / 4
	for src := 0; src < hosts; src++ {
		for dst := 0; dst < hosts; dst++ {
			if src == dst {
				continue
			}
			path, err := fb.route(nil, uint64(src*hosts+dst+1), src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) != fb.PathLinks(src, dst) {
				t.Fatalf("%d->%d: path len %d, PathLinks %d", src, dst, len(path), fb.PathLinks(src, dst))
			}
			if int(path[0]) != src {
				t.Fatalf("%d->%d: first link %d is not the source access link", src, dst, path[0])
			}
			if int(path[len(path)-1]) != hosts+dst {
				t.Fatalf("%d->%d: last link %d is not the destination access link", src, dst, path[len(path)-1])
			}
			for _, l := range path {
				if l < 0 || int(l) >= len(fb.LinkBps) {
					t.Fatalf("%d->%d: link %d out of range", src, dst, l)
				}
			}
		}
	}
}

// TestOversubscribedCore: a lone cross-pod flow is bottlenecked by the
// slowest link on its path, so with a 2:1 core its transfer rate must
// equal the core rate, not the access rate.
func TestOversubscribedCore(t *testing.T) {
	fb, err := NewFatTree(DefaultConfig(), FatTreeOpts{
		K: 4, RateBps: 100e9, CoreRateBps: 50e9, Delay: 1500 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const size = 10 << 20
	s := NewSim(fb, Instant())
	// Host 0 (pod 0) to host 15 (pod 3): 6-link cross-pod path.
	if _, err := s.AddFlow(1, 0, 15, size, 0); err != nil {
		t.Fatal(err)
	}
	res := s.Run(sim.Second)
	if res.Completed != 1 {
		t.Fatal("flow did not complete")
	}
	r := res.FCT.Records[0]
	transfer := r.FCT() - fb.latencyOffset(0, 15, size)
	wantSec := 8 * float64(fb.Cfg.wireBytes(size)) / 50e9
	if got := transfer.Seconds(); math.Abs(got-wantSec)/wantSec > 1e-6 {
		t.Errorf("cross-pod transfer %gs, want %gs (core-rate bound)", got, wantSec)
	}
}
