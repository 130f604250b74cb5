package fluid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// simShape picks randomFlowSim's fabric: an 8-sender chain, or a fat-tree
// of arity k (0 means 4) whose aggregation-core links run at the edge rate
// divided by coreDiv (0 and 1 mean uniform capacities). permutation replaces
// the random flows on a fat-tree with a symmetric permutation: flow i from
// host i mod hosts to the host half the fabric away, every flow one size,
// each wave of hosts flows starting together 50 us after the last.
type simShape struct {
	chain       bool
	k           int
	coreDiv     int64
	permutation bool
}

// randomFlowSim builds a fluid sim over the shape's fabric loaded with n
// pseudo-random flows: mixed sizes, staggered starts, random host pairs.
// Deterministic per seed.
func randomFlowSim(t testing.TB, seed int64, n int, shape simShape, model Model) *Sim {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var fb *Fabric
	var err error
	if shape.chain {
		attach := make([]int, 8)
		for i := range attach {
			attach[i] = i % 3
		}
		fb, err = NewChain(DefaultConfig(), ChainOpts{
			Switches: 3, SenderAttach: attach, RateBps: 100e9, Delay: 1500 * sim.Nanosecond,
		})
	} else {
		o := FatTreeOpts{K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond}
		if shape.k != 0 {
			o.K = shape.k
		}
		if shape.coreDiv > 1 {
			o.CoreRateBps = o.RateBps / shape.coreDiv
		}
		fb, err = NewFatTree(DefaultConfig(), o)
	}
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(fb, model)
	for i := 0; i < n; i++ {
		size := int64(1 + rng.Intn(1<<20))
		start := sim.Time(rng.Intn(200)) * sim.Microsecond
		var src, dst int
		switch {
		case shape.chain:
			src = rng.Intn(8)
			dst = 8 // the chain receiver
		case shape.permutation:
			src, dst = i%fb.Hosts, (i+fb.Hosts/2)%fb.Hosts
			size, start = 1<<20, sim.Time(i/fb.Hosts)*50*sim.Microsecond
		default:
			src = rng.Intn(fb.Hosts)
			dst = (src + 1 + rng.Intn(fb.Hosts-1)) % fb.Hosts
		}
		if _, err := s.AddFlow(uint64(i+1), src, dst, size, start); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestIncrementalMatchesFullPass runs mixed random workloads twice — once
// on the incremental engine with the differential checker armed (so every
// event is verified against the full-pass fixed point at 1e-9 relative),
// once with ForceFullPass — and then compares the recorded FCTs between
// the two engines.
func TestIncrementalMatchesFullPass(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chain bool
		model Model
	}{
		{"fattree-instant", false, Instant()},
		{"fattree-lagged", false, Model{Tau: 20 * sim.Microsecond}},
		{"chain-instant", true, Instant()},
		{"chain-lagged", true, Model{Tau: 50 * sim.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc := randomFlowSim(t, 42, 64, simShape{chain: tc.chain}, tc.model)
			inc.Differential = true
			ri := inc.Run(sim.Second)

			full := randomFlowSim(t, 42, 64, simShape{chain: tc.chain}, tc.model)
			full.ForceFullPass = true
			rf := full.Run(sim.Second)

			if ri.Completed != rf.Completed || ri.Completed != ri.Generated {
				t.Fatalf("completed %d (incremental) vs %d (full) of %d",
					ri.Completed, rf.Completed, ri.Generated)
			}
			ri.FCT.SortByStart()
			rf.FCT.SortByStart()
			for i := range ri.FCT.Records {
				a, b := ri.FCT.Records[i], rf.FCT.Records[i]
				if a.FlowID != b.FlowID {
					t.Fatalf("record %d: flow %d vs %d", i, a.FlowID, b.FlowID)
				}
				fa, fb := a.FCT().Seconds(), b.FCT().Seconds()
				if d := math.Abs(fa - fb); d > 1e-6*math.Max(fa, fb) {
					t.Errorf("flow %d: FCT %g (incremental) vs %g (full), rel %g",
						a.FlowID, fa, fb, d/math.Max(fa, fb))
				}
			}
			if ri.Stats.IncrementalPasses == 0 {
				t.Error("incremental run never took the incremental path")
			}
		})
	}
}

// TestStatsAccounting pins the pass bookkeeping: every event is either a
// full pass or an incremental pass, ForceFullPass makes them all full, and
// the affected-fraction counters move only on the incremental engine's
// actual work. Every link relaxation pops within its budget is either
// solved or skipped, never both and never neither.
func TestStatsAccounting(t *testing.T) {
	var pops int64
	check := refCheckSolve
	refCheckSolve = func(s *Sim, l int32, got float64) { pops++; check(s, l, got) }
	defer func() { refCheckSolve = check }()

	inc := randomFlowSim(t, 7, 48, simShape{}, Instant())
	inc.Differential = true // the hook above sees every in-budget pop
	ri := inc.Run(sim.Second)
	if got := ri.Stats.LinkSolves + ri.Stats.SolvesSkipped; got != pops || pops == 0 {
		t.Errorf("LinkSolves %d + SolvesSkipped %d != %d links popped within budget",
			ri.Stats.LinkSolves, ri.Stats.SolvesSkipped, pops)
	}
	if ri.Stats.SolvesSkipped == 0 || ri.Stats.LinkSolves < ri.Stats.LinksTouched {
		t.Errorf("solve counters implausible: %+v", ri.Stats)
	}
	if got := ri.Stats.Recomputes + ri.Stats.IncrementalPasses; got != ri.Stats.Events {
		t.Errorf("Recomputes %d + IncrementalPasses %d != Events %d",
			ri.Stats.Recomputes, ri.Stats.IncrementalPasses, ri.Stats.Events)
	}
	if ri.Stats.IncrementalPasses == 0 {
		t.Error("expected some incremental passes")
	}
	if ri.Stats.FlowsTouched == 0 || ri.Stats.HeapInvalidations == 0 {
		t.Errorf("affected-fraction counters did not move: %+v", ri.Stats)
	}

	full := randomFlowSim(t, 7, 48, simShape{}, Instant())
	full.ForceFullPass = true
	rf := full.Run(sim.Second)
	if rf.Stats.Recomputes != rf.Stats.Events || rf.Stats.IncrementalPasses != 0 {
		t.Errorf("ForceFullPass: Recomputes %d, IncrementalPasses %d, Events %d",
			rf.Stats.Recomputes, rf.Stats.IncrementalPasses, rf.Stats.Events)
	}
	if rf.Stats.LinksTouched != 0 || rf.Stats.LinkSolves != 0 || rf.Stats.SolvesSkipped != 0 {
		t.Errorf("full passes must not count incremental link work: %+v", rf.Stats)
	}
}

// TestRateAtLazyProfile: RateAt must evaluate the exponential profile at
// arbitrary instants without mutating state, matching RateBps at the
// settle point and the target in the far limit.
func TestRateAtLazyProfile(t *testing.T) {
	fb, err := NewChain(DefaultConfig(), ChainOpts{
		Switches: 3, SenderAttach: []int{0, 0}, RateBps: 100e9, Delay: 1500 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(fb, Model{Tau: 20 * sim.Microsecond})
	s.tau = s.model.Tau.Seconds()
	f, _ := s.AddFlow(1, 0, 2, 1<<20, 0)
	s.prepare()
	s.activate(f, 0)
	s.fullPass(0)
	f.rate = 2 * f.target // synthetic transient, decaying down
	at0 := s.RateAt(f, 0)
	if at0 != f.RateBps() {
		t.Errorf("RateAt(t0) %g != RateBps %g", at0, f.RateBps())
	}
	mid := s.RateAt(f, 20*sim.Microsecond)
	if !(mid < at0 && mid > f.TargetBps()) {
		t.Errorf("RateAt(tau) %g not between rate %g and target %g", mid, at0, f.TargetBps())
	}
	far := s.RateAt(f, sim.Second)
	if math.Abs(far-f.TargetBps()) > 1e-3*f.TargetBps() {
		t.Errorf("RateAt(inf) %g, want ~target %g", far, f.TargetBps())
	}
	if s.RateAt(f, 10*sim.Microsecond) != s.RateAt(f, 10*sim.Microsecond) {
		t.Error("RateAt mutated state")
	}
}

// TestLinkRateBpsOccupancy: LinkRateBps sums occupant rates off the
// persistent per-link state; a fully subscribed bottleneck reads exactly
// its capacity under instant convergence.
func TestLinkRateBpsOccupancy(t *testing.T) {
	const fanout = 8
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
		if _, err := s.AddFlow(uint64(i+1), i, fanout, 1<<20, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.prepare()
	for _, f := range s.Flows() {
		s.activate(f, 0)
	}
	s.fullPass(0)
	recv := s.Flows()[0].Path()
	bottleneck := recv[len(recv)-1]
	if got := s.LinkRateBps(bottleneck, 0); got != 100e9 {
		t.Errorf("bottleneck occupancy %g, want exactly 100e9", got)
	}
}

// TestFinishHeapOrdering exercises the indexed heap directly: pops come
// out in (key, seq) order across pushes, key updates, and removals.
func TestFinishHeapOrdering(t *testing.T) {
	var h finishHeap
	mk := func(seq int32, key float64) *Flow {
		f := &Flow{seq: seq, key: key, heapIdx: -1}
		h.Push(f)
		return f
	}
	f3 := mk(3, 5)
	mk(1, 2)
	f2 := mk(2, 2)
	mk(0, 9)
	f3.key = 1
	h.Fix(int(f3.heapIdx))
	h.Remove(int(f2.heapIdx))
	if f2.heapIdx != -1 {
		t.Errorf("removed flow keeps heap index %d", f2.heapIdx)
	}
	var got []int32
	for h.Len() > 0 {
		top := h.Min()
		h.Remove(int(top.heapIdx))
		got = append(got, top.seq)
	}
	want := []int32{3, 1, 0} // key 1, then key 2 (seq 1), then key 9
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestOfferedLoadSkipBoundary walks one link across the skip margin. Four
// flows each cross a private link of capacity share*C/4 and then the shared
// link X of capacity C; the first three are settled, then the fourth
// arrives, its private link saturates, and X is popped while still
// unsaturated with an offered load of share*C. Below the margin X must be
// skipped, inside it and above capacity it must be solved, and in every
// case the targets must equal the full-pass fixed point.
func TestOfferedLoadSkipBoundary(t *testing.T) {
	const C = 100e9
	for _, tc := range []struct {
		name  string
		share float64 // offered load on X as a fraction of its capacity
		skip  bool
	}{
		{"below-margin", 1 - 2*skipMargin, true},
		{"inside-margin", 1 - skipMargin/2, false},
		{"above-capacity", 1 + skipMargin, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*Sim, []*Flow) {
				private := tc.share * C / 4
				routes := map[[2]int][]int{}
				for i := 0; i < 4; i++ {
					routes[[2]int{i, 4 + i}] = []int{1 + i, 0}
				}
				s := NewSim(testFabric([]float64{C, private, private, private, private}, routes), Instant())
				for i := 0; i < 4; i++ {
					if _, err := s.AddFlow(uint64(i+1), i, 4+i, 1<<30, 0); err != nil {
						t.Fatal(err)
					}
				}
				s.prepare()
				return s, s.Flows()
			}
			s, fl := build()
			s.Differential = true
			for _, f := range fl[:3] {
				s.activate(f, 0)
			}
			s.recompute(0, fl[:3])
			before := *s.st
			s.activate(fl[3], 0)
			s.recompute(0, fl[3:])
			skipped := s.st.SolvesSkipped - before.SolvesSkipped
			solved := s.st.LinkSolves - before.LinkSolves
			// The arrival pops its private link (solved: the newcomer's
			// min1 is still +Inf there) and then X.
			if tc.skip && (skipped != 1 || solved != 1) {
				t.Errorf("offered load %.7f of capacity: %d skipped / %d solved, want X skipped (1/1)",
					tc.share, skipped, solved)
			}
			if !tc.skip && (skipped != 0 || solved < 2) {
				t.Errorf("offered load %.7f of capacity: %d skipped / %d solved, want X solved",
					tc.share, skipped, solved)
			}
			if saturated := !math.IsInf(s.links[0].level, 1); saturated != (tc.share > 1) {
				t.Errorf("offered load %.7f of capacity: X level %g", tc.share, s.links[0].level)
			}

			full, ffl := build()
			for _, f := range ffl {
				full.activate(f, 0)
			}
			full.fullPass(0)
			for i := range fl {
				if a, b := fl[i].target, ffl[i].target; math.Abs(a-b) > 1e-9*b {
					t.Errorf("flow %d: incremental target %g, full pass %g", fl[i].ID, a, b)
				}
			}
		})
	}
}

// TestLinkEmptiesThenRefills: when a link's last occupant finishes its
// offered load must restart from an exact zero (the skip test would
// otherwise inherit the rounding of everything that ever crossed it), and
// flows arriving later must account against the fresh sums. The reference
// recount runs at every event; the probe looks at the idle gap in between.
func TestLinkEmptiesThenRefills(t *testing.T) {
	s := randomFlowSim(t, 11, 0, simShape{k: 4, coreDiv: 2}, Instant())
	hosts := s.Fabric().Hosts
	for i := 0; i < 2*hosts; i++ {
		start := sim.Time(i%hosts) * 100 * sim.Nanosecond
		if i >= hosts {
			start += sim.Millisecond // second wave, long after the first drained
		}
		if _, err := s.AddFlow(uint64(i+1), i%hosts, (i+5)%hosts, 200_000, start); err != nil {
			t.Fatal(err)
		}
	}
	s.Differential = true
	idle := false
	s.SetProbe(500*sim.Microsecond, func(now sim.Time, active []*Flow) {
		if now != 500*sim.Microsecond {
			return
		}
		idle = len(active) == 0
		for l := range s.links {
			if s.links[l].load != 0 || s.links[l].infCnt != 0 || !math.IsInf(s.links[l].level, 1) {
				t.Errorf("idle link %d: load %g, infCnt %d, level %g", l, s.links[l].load, s.links[l].infCnt, s.links[l].level)
			}
		}
	})
	res := s.Run(sim.Second)
	if !idle {
		t.Fatal("the fabric was not idle between the two waves")
	}
	if res.Completed != 2*hosts {
		t.Fatalf("completed %d of %d", res.Completed, 2*hosts)
	}
}

// TestActivateOnUnsaturatedPath: a flow arriving on a path whose links are
// all unsaturated has no finite min1 to offer, so it counts in infCnt and
// keeps every one of its links on the real solve until a level appears.
// Alone on a 4:1 oversubscribed fabric it must end at the core rate, with
// the edge links downstream of the core skipped (offered 25 G of 100 G).
func TestActivateOnUnsaturatedPath(t *testing.T) {
	s := randomFlowSim(t, 1, 0, simShape{k: 4, coreDiv: 4}, Instant())
	f, err := s.AddFlow(1, 0, 15, 1<<20, 0) // cross-pod: 6 links
	if err != nil {
		t.Fatal(err)
	}
	s.Differential = true
	s.prepare()
	s.activate(f, 0)
	if len(f.path) != 6 || !math.IsInf(f.min1, 1) || f.arg != -1 {
		t.Fatalf("fresh flow on an idle fabric: path %v, min1 %g, arg %d", f.path, f.min1, f.arg)
	}
	for _, l := range f.path {
		if s.links[l].infCnt != 1 || s.links[l].load != 0 {
			t.Errorf("link %d after activation: infCnt %d, load %g", l, s.links[l].infCnt, s.links[l].load)
		}
	}
	s.recompute(0, []*Flow{f})
	if f.target != 25e9 {
		t.Errorf("target %g, want the 25 G core rate", f.target)
	}
	for _, l := range f.path {
		if s.links[l].infCnt != 0 || s.links[l].load != 25e9 {
			t.Errorf("link %d after the pass: infCnt %d, load %g", l, s.links[l].infCnt, s.links[l].load)
		}
	}
	if s.st.SolvesSkipped < 2 {
		t.Errorf("the two downstream edge links should have been skipped: %+v", *s.st)
	}
}
