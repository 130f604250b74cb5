package fluid

import (
	"fmt"
	"math"
)

// linkState is the persistent per-link state the incremental engine keeps
// alive across events (the old engine rebuilt occupant lists from scratch
// every pass): who occupies the link, its water level, and the offered
// load relax's skip test reads — one element per popped link.
type linkState struct {
	// flows holds the occupant flow indices (positions in Sim.flows).
	flows []int32
	// level is the water level, the fair share a flow bottlenecked here
	// receives; +Inf while unsaturated or empty.
	level float64
	// load sums the occupants' finite min1; infCnt counts the occupants
	// whose min1 is +Inf.
	load   float64
	infCnt int32
	// queued marks the link as already sitting on the worklist.
	queued bool
}

// fillLink is one still-filling link's row in progressiveFill's dense
// scratch.
type fillLink struct {
	rem float64 // capacity not yet handed out
	thr float64 // 1e-9 of capacity: a rem not above it is saturated
	cnt int32   // occupants not yet frozen
	l   int32   // the link
}

// skipMargin is the relative headroom below capacity an unsaturated link's
// offered load must keep for relax to skip its solve. 1e-6 (10^5 bit/s on
// a 100 G link) is far above what rounding in the running sums can reach
// and far below any load that matters; anything inside it is solved.
const skipMargin = 1e-6

// The path-walking reference model the cached solver replaced lives in
// reference_test.go, which installs these hooks from an init. With
// Sim.Differential set, refCheckSolve sees every popped link with the level
// production gave it (+Inf for a skipped one), refCheckState audits the
// caches after every pass, and refCheckFill replays progressiveFill through
// the two-pass fill it replaced, before every full pass and every
// differential replay; each panics on a mismatch. Nil outside this
// package's tests.
var (
	refCheckSolve func(s *Sim, l int32, got float64)
	refCheckState func(s *Sim, now float64)
	refCheckFill  func(s *Sim)
)

// addOccupant registers flow fi on link l.
func (s *Sim) addOccupant(l int32, fi int32) {
	ls := &s.links[l]
	if len(ls.flows) == 0 {
		s.occupied++
	}
	ls.flows = append(ls.flows, fi)
}

// removeOccupant drops flow fi from link l by scan + swap-remove. Occupant
// lists are short (one link's concurrent flows, not the global active set),
// so the scan is cheap; the swap perturbs only iteration order, and every
// consumer of that order is order-independent in value (min/compare
// arithmetic and integer counts).
func (s *Sim) removeOccupant(l int32, fi int32) {
	ls := &s.links[l]
	for i, v := range ls.flows {
		if v == fi {
			last := len(ls.flows) - 1
			ls.flows[i] = ls.flows[last]
			ls.flows = ls.flows[:last]
			break
		}
	}
	if len(ls.flows) == 0 {
		// No active flow crosses an empty link, so no cached path minimum
		// refers to this level; the load restarts from an exact zero.
		s.occupied--
		ls.level = math.Inf(1)
		ls.load, ls.infCnt = 0, 0
	}
}

// pathMin rescans f's path for its lowest water level, the lowest level
// over the other links, and the link holding the lowest (+Inf, +Inf, -1 on
// an all-unsaturated path). These are exact minima, so a ceil taken from
// them is the same float a walk over the path would produce.
func (s *Sim) pathMin(f *Flow) (min1, min2 float64, arg int32) {
	min1, min2, arg = math.Inf(1), math.Inf(1), -1
	for _, l := range f.path {
		switch lv := s.links[l].level; {
		case lv < min1:
			min1, min2, arg = lv, min1, l
		case lv < min2:
			min2 = lv
		}
	}
	return min1, min2, arg
}

// refreshPathMin re-caches f's path minima after link l on its path moved
// from level old to level[l], moving the path links' offered load only when
// min1 changed. The cached triple already says where l stood, so the path
// is rescanned only when l held one of the two minima and rose past it.
func (s *Sim) refreshPathMin(f *Flow, l int32, old float64) {
	min1, min2, arg := f.min1, f.min2, f.arg
	switch nl := s.links[l].level; {
	case arg == l && nl <= min2: // l held the minimum and still does
		min1 = nl
	case arg != l && nl < min1: // l takes the minimum over
		min1, min2, arg = nl, min1, l
	case arg != l && (nl <= min2 || old > min2): // l can only lower min2
		if nl < min2 {
			min2 = nl
		}
	default:
		min1, min2, arg = s.pathMin(f)
	}
	if min1 != f.min1 {
		s.offer(f, -1)
		f.min1 = min1
		s.offer(f, 1)
	}
	f.min2, f.arg = min2, arg
}

// offer adds (sign 1) or withdraws (sign -1) f's min1 — what f would send
// if no link on its path constrained it further — from the offered load of
// each link on the path.
func (s *Sim) offer(f *Flow, sign int32) {
	if math.IsInf(f.min1, 1) {
		for _, l := range f.path {
			s.links[l].infCnt += sign
		}
		return
	}
	d := float64(float64(sign) * f.min1)
	for _, l := range f.path {
		s.links[l].load += d
	}
}

// linkQueue is the relaxation worklist: a FIFO ring of link indices. A
// link waits on it at most once (linkState.queued), so a ring with a slot
// for every link some flow crosses never fills, however often relaxation
// pops a link and queues it again.
type linkQueue struct {
	ring    []int32
	head, n int
}

func (q *linkQueue) push(l int32) {
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = l
	q.n++
}

func (q *linkQueue) pop() int32 {
	l := q.ring[q.head]
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return l
}

// enqueueLink pushes l onto the worklist unless it is already there.
func (s *Sim) enqueueLink(l int32) {
	if !s.links[l].queued {
		s.links[l].queued = true
		s.work.push(l)
	}
}

// clearWork empties the worklist, resetting the queued marks of any links
// still waiting (a full pass supersedes whatever relaxation was pending).
func (s *Sim) clearWork() {
	for s.work.n > 0 {
		s.links[s.work.pop()].queued = false
	}
}

// levelsClose reports whether two water levels (or flow targets) agree to
// within the propagation threshold (Sim.Tolerance). Levels within this
// relative distance are treated as unchanged, which is what stops
// relaxation waves from ringing on float noise — and, at coarse
// tolerances, what confines a wave to the links where the event's effect
// is material. At the default threshold the differential checker's much
// looser 1e-9 budget bounds the drift this can leave standing (the gap
// never compounds — each pass compares against the fresh solve).
func (s *Sim) levelsClose(a, b float64) bool {
	if a == b {
		return true // also covers +Inf == +Inf
	}
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return false
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := math.Abs(a)
	if bb := math.Abs(b); bb > m {
		m = bb
	}
	return d <= s.tol*m
}

// solveLink computes link l's single-link water level given its occupants'
// constraints elsewhere: each occupant is capped by the minimum level of
// the other links on its path (its ceil, read off the cached path minima:
// min2 if l itself holds the path minimum, min1 otherwise), and the level L
// satisfies
// sum_i min(ceil_i, L) = capacity. Peeling solves this exactly: start from
// capacity/n, repeatedly move occupants whose ceil lies below the current
// candidate into the "remote" (capped) group, and redistribute what is
// left over the rest. The candidate only grows, so each occupant peels at
// most once. Returns +Inf when every occupant is capped below saturation.
func (s *Sim) solveLink(l int32) float64 {
	ls := &s.links[l]
	n := len(ls.flows)
	if n == 0 {
		return math.Inf(1)
	}
	ceil := s.ceil[:0]
	for _, fi := range ls.flows {
		f := s.flows[fi]
		c := f.min1
		if f.arg == l {
			c = f.min2
		}
		ceil = append(ceil, c)
	}
	s.ceil = ceil

	capacity := s.fab.LinkBps[l]
	local := n
	sumRemote := 0.0
	L := capacity / float64(local)
	for {
		peeled := false
		for i, c := range ceil {
			if c < L {
				sumRemote += c
				local--
				ceil[i] = math.Inf(1) // consumed: never peels again
				peeled = true
			}
		}
		if !peeled {
			break
		}
		if local == 0 {
			return math.Inf(1) // all occupants capped elsewhere
		}
		L = (capacity - sumRemote) / float64(local)
	}
	return L
}

// pathCapMin is the last-resort placement level: the smallest raw link
// capacity on f's path.
func (s *Sim) pathCapMin(f *Flow) float64 {
	m := math.Inf(1)
	for _, l := range f.path {
		if c := s.fab.LinkBps[l]; c < m {
			m = c
		}
	}
	return m
}

// relax drains the worklist: pop a link, re-solve its water level from its
// occupants' constraints, and — when the level moved — retarget the
// occupants, re-queueing the other links of every flow whose target
// changed. That re-queue rule is the bottleneck-dependency closure: a
// link's solve depends on other links only through the ceils of shared
// flows, and (as DESIGN.md argues) a shared flow can change a neighbor's
// solve only when its own max-min target moved — so unchanged targets
// prune the wave. The work budget bounds pathological cascades: once
// relaxation has cost about as much as a global pass, it gives up and the
// caller falls back to fullPass (the abandoned partial state is harmless —
// the full pass rewrites every level and target).
//
// A popped link that is unsaturated (+Inf) is first tried against its
// offered load: every occupant's ceil there is its min1, and if their sum
// stays below capacity by skipMargin the peeling solve can only return +Inf
// again (were it to stop at a level L with a set S of occupants unpeeled,
// the ceils of S alone would sum to at least |S|*L, which is capacity minus
// the peeled ceils to within a few ulps). Such a link is skipped after its
// budget charge, exactly where levelsClose(+Inf, +Inf) would have stopped.
func (s *Sim) relax(now float64) bool {
	budget := 128 + 4*len(s.active)
	units := 0
	for s.work.n > 0 {
		l := s.work.pop()
		ls := &s.links[l]
		ls.queued = false
		units += len(ls.flows) + 1
		if units > budget {
			s.clearWork()
			return false
		}
		old := ls.level
		newL := old
		if math.IsInf(old, 1) && ls.infCnt == 0 && ls.load <= s.fab.LinkBps[l]*(1-skipMargin) {
			s.st.SolvesSkipped++
		} else {
			s.st.LinkSolves++
			newL = s.solveLink(l)
		}
		if s.Differential && refCheckSolve != nil {
			refCheckSolve(s, l, newL)
		}
		if s.levelsClose(old, newL) {
			continue
		}
		ls.level = newL
		s.st.LinksTouched++
		for _, fi := range ls.flows {
			f := s.flows[fi]
			s.refreshPathMin(f, l, old)
			nt := f.min1
			if math.IsInf(nt, 1) {
				continue // defensive; a changed level leaves a finite path min
			}
			if f.rate >= 0 && s.levelsClose(f.target, nt) {
				continue
			}
			s.setTarget(f, nt, now)
			for _, pl := range f.path {
				if pl != l {
					s.enqueueLink(pl)
				}
			}
		}
	}
	return true
}

// fullPass recomputes the global max-min allocation by progressive filling
// over the persistent occupant lists, reseeding every occupied link's water
// level. It is the mass-arrival seed pass and the worklist-overrun
// fallback, and shares its core with the differential checker's reference
// solver.
func (s *Sim) fullPass(now float64) {
	s.clearWork()
	s.st.Recomputes++
	if s.Differential && refCheckFill != nil {
		refCheckFill(s)
	}
	s.progressiveFill(
		func(l int32, level float64) {
			// Every occupied link gets its level exactly once: zero its
			// offered load here for the recount below.
			ls := &s.links[l]
			ls.level = level
			ls.load, ls.infCnt = 0, 0
		},
		func(f *Flow, level float64) {
			if f.rate >= 0 && s.levelsClose(f.target, level) {
				return // untouched: keep the flow's lazy state and heap key
			}
			s.setTarget(f, level, now)
		},
	)
	// Every occupied link's level may have moved: re-cache every active
	// flow's path minima and recount the offered loads from zero (which
	// also sheds whatever rounding the running sums had picked up).
	for _, f := range s.active {
		f.min1, f.min2, f.arg = s.pathMin(f)
		s.offer(f, 1)
	}
}

// progressiveFill runs one global water-filling pass over the persistent
// occupant lists: raise every unfrozen flow uniformly until some link
// saturates, freeze the flows crossing it at the current level, repeat.
// onLevel is called exactly once per occupied link with its final level
// (the saturation level, or +Inf if the link never saturates); the
// saturated links are reported in the order they saturate, and within a
// round in link-index order. assign is called once per flow as it freezes.
// State mutation happens only through those callbacks plus the fill scratch,
// which is what lets the differential checker replay a pass without
// touching live state.
//
// A round is one sequential pass over the dense fill rows: drop the links
// no unfrozen flow crosses, subtract the round's share, collect the
// saturated links, and take the next round's minimum share at the current
// counts. Freezing then only lowers counts, which only raises the share of
// a link that stays unsaturated, so that minimum stands unless the link
// holding it lost an occupant; only then is it rescanned. The compaction
// is stable, so rows stay in link-index order.
func (s *Sim) progressiveFill(onLevel func(l int32, level float64), assign func(f *Flow, level float64)) {
	fill := s.fill[:0]
	for l := range s.links {
		n := len(s.links[l].flows)
		if n == 0 {
			continue // empty links stay at +Inf (maintained on removal)
		}
		c := s.fab.LinkBps[l]
		fill = append(fill, fillLink{rem: c, thr: 1e-9 * c, cnt: int32(n), l: int32(l)})
	}
	frozen := s.frozen[:len(s.active)]
	clear(frozen)
	unfrozen := len(s.active)
	delta := minShare(fill)
	level := 0.0
	for unfrozen > 0 {
		level += delta
		next, arg := math.Inf(1), -1
		sat := s.sat[:0]
		w := 0
		for _, fl := range fill {
			if fl.cnt == 0 {
				if fl.rem > fl.thr {
					onLevel(fl.l, math.Inf(1)) // every occupant froze elsewhere
				}
				continue
			}
			fl.rem -= float64(delta * float64(fl.cnt))
			s.pos[fl.l] = int32(w)
			fill[w] = fl
			// Saturated: capacity exhausted to within float noise.
			if !(fl.rem > fl.thr) {
				sat = append(sat, fl.l)
			} else if share := fl.rem / float64(fl.cnt); share < next {
				next, arg = share, w
			}
			w++
		}
		fill = fill[:w]
		var argCnt int32
		if arg >= 0 {
			argCnt = fill[arg].cnt
		}
		froze := false
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
					fill[s.pos[pl]].cnt--
				}
			}
		}
		if !froze {
			break // numeric guard; delta selection should always freeze
		}
		delta = next
		if arg >= 0 && fill[arg].cnt != argCnt {
			delta = minShare(fill)
		}
	}
	// Links still filling never saturated: they carry no constraint.
	for _, fl := range fill {
		if fl.rem > fl.thr {
			onLevel(fl.l, math.Inf(1))
		}
	}
	// Numeric-guard leftovers (should not happen): place any unfrozen flow
	// at its current path minimum so it never runs free.
	if unfrozen > 0 {
		for _, f := range s.active {
			if frozen[f.actIdx] {
				continue
			}
			nt, _, _ := s.pathMin(f)
			if math.IsInf(nt, 1) {
				if f.rate >= 0 {
					continue // keep the previous target
				}
				nt = s.pathCapMin(f)
			}
			assign(f, nt)
		}
	}
}

// minShare is the smallest fair share, remaining capacity over unfrozen
// occupants, among the rows some unfrozen flow still crosses.
func minShare(fill []fillLink) float64 {
	m := math.Inf(1)
	for _, fl := range fill {
		if fl.cnt > 0 {
			if share := fl.rem / float64(fl.cnt); share < m {
				m = share
			}
		}
	}
	return m
}

// checkDifferential replays the just-processed event through the full-pass
// reference solver into scratch and panics if any active flow's incremental
// target strays beyond 1e-9 relative — the guard that keeps the worklist
// engine pinned to the progressive-filling fixed point. Enabled by
// Sim.Differential (tests and fuzzing only; it makes every event O(global)).
func (s *Sim) checkDifferential(now float64) {
	if cap(s.checkT) < len(s.active) {
		s.checkT = make([]float64, len(s.active))
	}
	want := s.checkT[:len(s.active)]
	for i, f := range s.active {
		want[i] = f.target // leftovers keep their incremental value
	}
	if refCheckFill != nil {
		refCheckFill(s)
	}
	s.progressiveFill(
		func(l int32, level float64) {},
		func(f *Flow, level float64) { want[f.actIdx] = level },
	)
	for i, f := range s.active {
		w := want[i]
		d := math.Abs(f.target - w)
		if d > 1e-9*math.Max(math.Abs(w), 1) {
			panic(fmt.Sprintf(
				"fluid: differential check failed at t=%.9fs: flow %d incremental target %g, full-pass %g (rel %g)",
				now, f.ID, f.target, w, d/math.Max(math.Abs(w), 1)))
		}
	}
}
