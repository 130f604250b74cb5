package fluid

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// The reference model: the solver as it stood before flows cached their
// path minima, and the progressive fill as it stood before a round became
// one dense pass, kept here — and only here — so the production ones have
// something to be bit-compared against. Every run with Sim.Differential set
// goes through it (init installs the hooks incremental.go declares): each
// popped link is re-solved by walking every occupant's path, a skipped link
// must come out +Inf, after every pass each active flow's cached triple and
// each link's offered load are recounted from the levels, and every full
// pass and differential replay is replayed through referenceFill.
func init() {
	refCheckSolve = referenceCheckSolve
	refCheckState = referenceCheckState
	refCheckFill = referenceCheckFill
}

// referenceFill is progressiveFill as two scattered passes a round over an
// index list of the still-filling links: a minimum scan with one division
// per link, then a subtract that collects the saturated links. Its scratch
// is its own, so it leaves the Sim untouched.
func referenceFill(s *Sim, onLevel func(l int32, level float64), assign func(f *Flow, level float64)) {
	remaining := make([]float64, len(s.links))
	count := make([]int, len(s.links))
	var seed []int32
	for l := range s.links {
		if len(s.links[l].flows) == 0 {
			continue
		}
		remaining[l] = s.fab.LinkBps[l]
		count[l] = len(s.links[l].flows)
		seed = append(seed, int32(l))
	}
	live := append([]int32(nil), seed...)
	frozen := make([]bool, len(s.active))
	unfrozen := len(s.active)
	level := 0.0
	for unfrozen > 0 {
		delta := math.Inf(1)
		w := 0
		for _, l := range live {
			if count[l] > 0 {
				live[w] = l
				w++
				if share := remaining[l] / float64(count[l]); share < delta {
					delta = share
				}
			}
		}
		live = live[:w]
		level += delta
		froze := false
		var sat []int32
		for _, l := range live {
			remaining[l] -= float64(delta * float64(count[l]))
			if !(remaining[l] > 1e-9*s.fab.LinkBps[l]) {
				sat = append(sat, l)
			}
		}
		for _, l := range sat {
			onLevel(l, level)
			for _, fi := range s.links[l].flows {
				f := s.flows[fi]
				if frozen[f.actIdx] {
					continue
				}
				frozen[f.actIdx] = true
				assign(f, level)
				froze = true
				unfrozen--
				for _, pl := range f.path {
					count[pl]--
				}
			}
		}
		if !froze {
			break
		}
	}
	for _, l := range seed {
		if remaining[l] > 1e-9*s.fab.LinkBps[l] {
			onLevel(l, math.Inf(1))
		}
	}
	if unfrozen > 0 {
		for _, f := range s.active {
			if frozen[f.actIdx] {
				continue
			}
			nt, _, _ := s.pathMin(f)
			if math.IsInf(nt, 1) {
				if f.rate >= 0 {
					continue
				}
				nt = s.pathCapMin(f)
			}
			assign(f, nt)
		}
	}
}

// fillTrace is what one fill reports: each saturated link with its level,
// in the order reported; how often each never-saturated link was reported
// at +Inf; each assignment, in order. Levels are kept as bits, so equal
// traces mean bit-identical fills.
type fillTrace struct {
	sat, assign [][2]uint64 // (link or flow ID, level bits)
	inf         map[int32]int
}

// traceFill runs fill over s with callbacks that only record.
func traceFill(s *Sim, fill func(s *Sim, onLevel func(int32, float64), assign func(*Flow, float64))) fillTrace {
	tr := fillTrace{inf: map[int32]int{}}
	fill(s,
		func(l int32, level float64) {
			if math.IsInf(level, 1) {
				tr.inf[l]++
				return
			}
			tr.sat = append(tr.sat, [2]uint64{uint64(l), math.Float64bits(level)})
		},
		func(f *Flow, level float64) {
			tr.assign = append(tr.assign, [2]uint64{f.ID, math.Float64bits(level)})
		})
	return tr
}

// diffTraces names the first difference between two fill traces, or
// returns "" when they agree.
func diffTraces(got, want fillTrace) string {
	for _, c := range []struct {
		what      string
		got, want [][2]uint64
	}{{"saturation", got.sat, want.sat}, {"assignment", got.assign, want.assign}} {
		for i := range max(len(c.got), len(c.want)) {
			if i >= len(c.got) || i >= len(c.want) {
				return fmt.Sprintf("%d %ss, reference %d", len(c.got), c.what, len(c.want))
			}
			if g, w := c.got[i], c.want[i]; g != w {
				return fmt.Sprintf("%s %d: %d at %g, reference %d at %g", c.what, i,
					g[0], math.Float64frombits(g[1]), w[0], math.Float64frombits(w[1]))
			}
		}
	}
	if !maps.Equal(got.inf, want.inf) {
		return fmt.Sprintf("links reported unsaturated %v, reference %v", got.inf, want.inf)
	}
	return ""
}

func referenceCheckFill(s *Sim) {
	got := traceFill(s, (*Sim).progressiveFill)
	want := traceFill(s, referenceFill)
	if d := diffTraces(got, want); d != "" {
		panic("fluid: progressiveFill differs from the two-pass reference: " + d)
	}
}

// referenceCeil is the minimum water level over f's path, leaving out link
// skip (pass -1 for the whole path).
func referenceCeil(s *Sim, f *Flow, skip int32) float64 {
	c := math.Inf(1)
	for _, pl := range f.path {
		if pl == skip {
			continue
		}
		if lv := s.links[pl].level; lv < c {
			c = lv
		}
	}
	return c
}

// referenceSolveLink is solveLink with the per-occupant ceil taken by a walk
// over the occupant's path instead of from the cache.
func referenceSolveLink(s *Sim, l int32) float64 {
	occ := s.links[l].flows
	if len(occ) == 0 {
		return math.Inf(1)
	}
	ceil := make([]float64, len(occ))
	for i, fi := range occ {
		ceil[i] = referenceCeil(s, s.flows[fi], l)
	}
	capacity := s.fab.LinkBps[l]
	local := len(occ)
	sumRemote := 0.0
	L := capacity / float64(local)
	for {
		peeled := false
		for i, c := range ceil {
			if c < L {
				sumRemote += c
				local--
				ceil[i] = math.Inf(1)
				peeled = true
			}
		}
		if !peeled {
			return L
		}
		if local == 0 {
			return math.Inf(1)
		}
		L = (capacity - sumRemote) / float64(local)
	}
}

func referenceCheckSolve(s *Sim, l int32, got float64) {
	if want := referenceSolveLink(s, l); math.Float64bits(want) != math.Float64bits(got) {
		panic(fmt.Sprintf("fluid: link %d: production level %g, path-walking reference %g (level %g, load %g of %g, infCnt %d)",
			l, got, want, s.links[l].level, s.links[l].load, s.fab.LinkBps[l], s.links[l].infCnt))
	}
}

func referenceCheckState(s *Sim, now float64) {
	for _, f := range s.active {
		min1 := referenceCeil(s, f, -1)
		min2 := math.Inf(1)
		if f.arg >= 0 {
			min2 = referenceCeil(s, f, f.arg)
		}
		ok := math.Float64bits(min1) == math.Float64bits(f.min1) &&
			math.Float64bits(min2) == math.Float64bits(f.min2)
		if !math.IsInf(min1, 1) {
			// arg must be a link of the path that holds the minimum.
			onPath := false
			for _, pl := range f.path {
				onPath = onPath || pl == f.arg
			}
			ok = ok && onPath && s.links[f.arg].level == min1
		}
		if !ok {
			panic(fmt.Sprintf("fluid: t=%.9fs flow %d: cached path minima (%g, %g, arg %d), rescan (%g, %g)",
				now, f.ID, f.min1, f.min2, f.arg, min1, min2))
		}
	}
	for l := range s.links {
		load, inf := 0.0, int32(0)
		for _, fi := range s.links[l].flows {
			if m := referenceCeil(s, s.flows[fi], -1); math.IsInf(m, 1) {
				inf++
			} else {
				load += m
			}
		}
		tol := 1e-9 * s.fab.LinkBps[l]
		if len(s.links[l].flows) == 0 {
			tol = 0 // an empty link restarts from an exact zero
		}
		if inf != s.links[l].infCnt || math.Abs(load-s.links[l].load) > tol {
			panic(fmt.Sprintf("fluid: t=%.9fs link %d: offered load %g / infCnt %d, recount %g / %d",
				now, l, s.links[l].load, s.links[l].infCnt, load, inf))
		}
	}
}

// TestFillMatchesReference compares progressiveFill with referenceFill bit
// for bit: on the first pass over every flow of a case at once, then on
// every event of a run that takes a full pass each time (the hook above
// replays each one). The cases are the ones the dense round could get
// wrong: a symmetric permutation whose links saturate in ties, an
// oversubscribed core, and a round whose minimum share sits on a link that
// then loses an occupant, so the next minimum must be rescanned.
func TestFillMatchesReference(t *testing.T) {
	var fills int
	check := refCheckFill
	refCheckFill = func(s *Sim) { fills++; check(s) }
	defer func() { refCheckFill = check }()

	permutation := func(t *testing.T) *Sim {
		return randomFlowSim(t, 1, 16, simShape{permutation: true}, Instant())
	}
	oversubscribed := func(t *testing.T) *Sim {
		return randomFlowSim(t, 5, 64, simShape{k: 4, coreDiv: 4}, Instant())
	}
	// Links A, B and C of 10, 30 and 100 G; flow 1 crosses A and B, flow 2
	// A, flows 3 and 4 B, flow 5 C. Round one raises every flow to 5 G and
	// saturates A; B, with 15 G left over 3 occupants, holds the next
	// minimum share of 5 G until flow 1 freezes, and then 7.5 G over its two
	// occupants. A round that kept the stale 5 G would saturate nothing and
	// stop the fill at its numeric guard.
	rescan := func(t *testing.T) *Sim {
		s := NewSim(testFabric([]float64{10e9, 30e9, 100e9}, map[[2]int][]int{
			{0, 4}: {0, 1}, {1, 5}: {0}, {2, 6}: {1}, {3, 7}: {1}, {4, 0}: {2},
		}), Instant())
		for i, p := range [][2]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}, {4, 0}} {
			if _, err := s.AddFlow(uint64(i+1), p[0], p[1], 1000, 0); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *Sim
		check func(t *testing.T, tr fillTrace)
	}{
		{"symmetric-permutation", permutation, func(t *testing.T, tr fillTrace) {
			ties := map[uint64]int{}
			most := 0
			for _, sl := range tr.sat {
				ties[sl[1]]++
				most = max(most, ties[sl[1]])
			}
			if most < 2 {
				t.Errorf("no two links saturated at one level: %v", tr.sat)
			}
		}},
		{"oversubscribed", oversubscribed, nil},
		{"argmin-rescan", rescan, func(t *testing.T, tr fillTrace) {
			want := [][2]uint64{{0, math.Float64bits(5e9)}, {1, math.Float64bits(12.5e9)}, {2, math.Float64bits(100e9)}}
			if !slices.Equal(tr.sat, want) {
				t.Errorf("saturations %v, want A at 5 G, B at 12.5 G, C at 100 G", tr.sat)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			s.prepare()
			for _, f := range s.Flows() {
				s.activate(f, 0)
			}
			got := traceFill(s, (*Sim).progressiveFill)
			if d := diffTraces(got, traceFill(s, referenceFill)); d != "" {
				t.Fatal(d)
			}
			if len(got.assign) != len(s.Flows()) {
				t.Fatalf("%d of %d flows assigned", len(got.assign), len(s.Flows()))
			}
			if tc.check != nil {
				tc.check(t, got)
			}

			fills = 0
			s = tc.build(t)
			s.ForceFullPass = true
			s.Differential = true
			res := s.Run(sim.Second)
			if res.Completed != res.Generated {
				t.Fatalf("completed %d of %d", res.Completed, res.Generated)
			}
			if fills < 2*res.Stats.Events {
				t.Errorf("%d fills compared over %d full-pass events", fills, res.Stats.Events)
			}
		})
	}
}
