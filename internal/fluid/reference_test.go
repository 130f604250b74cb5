package fluid

import (
	"fmt"
	"math"
)

// The reference model: the solver as it stood before flows cached their
// path minima, kept here — and only here — so the cached one has something
// to be bit-compared against. Every run with Sim.Differential set goes
// through it (init installs the hooks incremental.go declares): each popped
// link is re-solved by walking every occupant's path, a skipped link must
// come out +Inf, and after every pass each active flow's cached triple and
// each link's offered load are recounted from the levels.
func init() {
	refCheckSolve = referenceCheckSolve
	refCheckState = referenceCheckState
}

// referenceCeil is the minimum water level over f's path, leaving out link
// skip (pass -1 for the whole path).
func referenceCeil(s *Sim, f *Flow, skip int32) float64 {
	c := math.Inf(1)
	for _, pl := range f.path {
		if pl == skip {
			continue
		}
		if lv := s.level[pl]; lv < c {
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
			l, got, want, s.level[l], s.load[l], s.fab.LinkBps[l], s.infCnt[l]))
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
			ok = ok && onPath && s.level[f.arg] == min1
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
		if inf != s.infCnt[l] || math.Abs(load-s.load[l]) > tol {
			panic(fmt.Sprintf("fluid: t=%.9fs link %d: offered load %g / infCnt %d, recount %g / %d",
				now, l, s.load[l], s.infCnt[l], load, inf))
		}
	}
}
