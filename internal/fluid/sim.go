package fluid

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/chunk"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Flow is one fluid transfer. Rates evolve piecewise between events: at
// every arrival/finish the water-filling pass assigns each flow a new
// max-min target, and the flow's instantaneous rate decays toward it with
// the model's time constant.
//
// Flow state is lazy: remBits and rate are a snapshot at t0, the last time
// the flow's target changed. Flows untouched by an event are not advanced —
// the exponential profile integrates exactly over any span, so settling
// only on target changes loses nothing and turns the per-event cost from
// O(active) into O(affected).
type Flow struct {
	ID        uint64
	Src, Dst  int
	SizeBytes int64
	Start     sim.Time
	// Finish is the completion time (-1 if the deadline hit first).
	Finish sim.Time
	// Ideal is the unloaded-network FCT (slowdown denominator).
	Ideal sim.Time

	path    []int32 // fabric link indices: a window of Sim.paths
	remBits float64 // remaining on-the-wire bits as of t0
	rate    float64 // instantaneous rate (bit/s) as of t0
	target  float64 // current max-min fair share (bit/s)
	// Cached path minima, exact while the flow is active (pathMin computes
	// them; see "Cached path minima" in DESIGN.md for who refreshes when):
	// min1 is the lowest water level over the path, arg the link holding it,
	// min2 the lowest level over the other links. They sit beside
	// rate/target because solveLink reads them once per occupant.
	min1, min2 float64
	arg        int32
	t0         float64 // seconds; when remBits/rate were last settled
	offset     sim.Time

	seq        int32   // position in Sim.flows after the start-order sort
	actIdx     int32   // position in Sim.active (-1 when inactive)
	heapIdx    int32   // position in the finish heap (-1 when absent)
	key        float64 // heap key: absolute finish time (lower bound or exact)
	exact      bool    // key is the exact finish time, not just a lower bound
	placedPass int64   // pass that first placed the flow (see setTarget)
}

// Path returns a copy of the flow's resolved route as fabric link indices.
func (f *Flow) Path() []int {
	p := make([]int, len(f.path))
	for i, l := range f.path {
		p[i] = int(l)
	}
	return p
}

// RateBps returns the flow's instantaneous rate in bit/s as of the flow's
// last settle point (0 before the flow's first placement). For the rate at
// an arbitrary instant use Sim.RateAt, which evaluates the lazy profile.
func (f *Flow) RateBps() float64 {
	if f.rate < 0 {
		return 0 // sentinel: not yet placed by water-filling
	}
	return f.rate
}

// TargetBps returns the flow's current max-min fair share in bit/s.
func (f *Flow) TargetBps() float64 { return f.target }

// Stats is one run's fluid-engine telemetry. The affected-* totals
// (LinksTouched, FlowsTouched, HeapInvalidations) divide by Events to give
// the per-event affected fraction the incremental engine is built around.
type Stats struct {
	// Events counts arrival and finish events processed.
	Events int
	// Recomputes counts full water-filling passes: batch-arrival seeding
	// plus every worklist overrun that fell back to a global rebuild.
	// (Historically this was a synonym for Events; with the incremental
	// engine, Recomputes + IncrementalPasses == Events.)
	Recomputes int
	// IncrementalPasses counts events settled by worklist relaxation alone.
	IncrementalPasses int
	// MaxActive is the peak concurrent flow count.
	MaxActive int
	// LinksTouched totals links whose water level changed across all
	// incremental passes (full passes touch every occupied link and are
	// not counted here — Recomputes already measures them).
	LinksTouched int64
	// FlowsTouched totals flows whose max-min target changed in any pass.
	FlowsTouched int64
	// HeapInvalidations totals finish-heap key updates forced by target
	// changes (each one re-arms a lazy lower bound for later refinement).
	HeapInvalidations int64
	// LinkSolves and SolvesSkipped split the links relaxation popped within
	// its budget: re-solved by peeling, or skipped because an unsaturated
	// link's offered load proved it still unsaturated (see relax).
	LinkSolves    int64
	SolvesSkipped int64
}

// Result is one completed fluid run.
type Result struct {
	// FCT collects completed flows, directly comparable with the packet
	// engine's collector (same Ideal model, same Slowdown definition).
	FCT *metrics.FCTCollector
	// Completed / Generated track deadline success like the packet runners.
	Completed int
	Generated int
	Stats     Stats
}

// Sim accumulates flows and runs them to completion. Not safe for
// concurrent use; results are deterministic for a given flow set.
type Sim struct {
	fab   *Fabric
	model Model
	tau   float64 // model.Tau in seconds, cached for the run
	tol   float64 // Tolerance with the zero default resolved (see Run)
	flows []*Flow
	slab  chunk.Of[Flow]  // Flow storage: flows points into it
	paths chunk.Of[int32] // path storage: each flow's path is a window of it

	// Persistent incremental water-filling state (alive across events).
	active   []*Flow
	links    []linkState
	occupied int       // links with at least one occupant
	work     linkQueue // relaxation worklist
	heap     finishHeap

	// Scratch, sized once by prepare and reused across passes.
	ceil   []float64  // solveLink: one ceil per occupant
	fill   []fillLink // progressiveFill: the links still filling
	pos    []int32    // progressiveFill: a link's row in fill (prepare: its room)
	sat    []int32    // progressiveFill: links saturated this round
	frozen []bool     // progressiveFill: by actIdx, the flows already assigned
	checkT []float64  // differential checker targets

	st     *Stats // current run's stats (a throwaway before Run starts)
	passID int64  // identifies the current recompute pass

	// ForceFullPass disables incremental recomputation: every event runs a
	// global progressive-filling pass. This is the benchmark baseline
	// (BenchmarkFluidLargeActiveFullPass) and a bisection aid.
	ForceFullPass bool
	// Tolerance is the relative water-level change below which relaxation
	// does not propagate (0 means the 1e-12 default, which tracks the
	// full-pass fixed point to well under the differential checker's 1e-9
	// budget). Dense fabrics couple every link to every other within a few
	// sharing hops, so each event perturbs the exact fixed point globally
	// by a tiny amount; coarsening the tolerance (say 1e-6) confines the
	// relaxation wave to the links where the change is material, which is
	// the precision/locality trade-off that makes 50k-flow runs
	// interactive. Must stay at the default when Differential is set.
	Tolerance float64
	// Differential replays every pass through the full-pass solver and
	// panics if any incremental target strays beyond 1e-9 relative — the
	// correctness harness for the incremental engine (tests and fuzzing).
	// Inside this package's tests it also arms the path-walking reference
	// model (reference_test.go) against the cached solver.
	Differential bool

	// Telemetry probe: when set, Run invokes probeFn at every multiple of
	// probeEvery as a first-class loop event. Sampling is read-only over
	// the lazy flow state (RateAt / LinkRateBps), so probing perturbs
	// nothing — not even float rounding.
	probeFn    func(now sim.Time, active []*Flow)
	probeEvery float64 // seconds
	nextProbe  float64 // seconds
}

// Fabric returns the fabric the simulation runs over.
func (s *Sim) Fabric() *Fabric { return s.fab }

// Flows returns every flow added so far (callers must not mutate).
func (s *Sim) Flows() []*Flow { return s.flows }

// SetProbe installs a sampling callback invoked at every multiple of the
// period during Run. Install before Run; a nil fn disables probing.
func (s *Sim) SetProbe(every sim.Time, fn func(now sim.Time, active []*Flow)) {
	if fn != nil && every <= 0 {
		panic(fmt.Sprintf("fluid: non-positive probe period %v", every))
	}
	s.probeFn = fn
	s.probeEvery = every.Seconds()
	s.nextProbe = s.probeEvery
}

// NewSim prepares a run over fab under the scheme convergence model.
func NewSim(fab *Fabric, model Model) *Sim {
	n := len(fab.LinkBps)
	s := &Sim{
		fab:   fab,
		model: model,
		tol:   defaultTolerance,
		links: make([]linkState, n),
		pos:   make([]int32, n),
		st:    &Stats{},
	}
	for l := range s.links {
		s.links[l].level = math.Inf(1)
	}
	return s
}

const defaultTolerance = 1e-12

// AddFlow registers a transfer of size bytes from src to dst starting at
// start, resolving its route immediately.
func (s *Sim) AddFlow(id uint64, src, dst int, size int64, start sim.Time) (*Flow, error) {
	if err := s.fab.checkHost(src); err != nil {
		return nil, err
	}
	if err := s.fab.checkHost(dst); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, fmt.Errorf("fluid: flow %d with src == dst", id)
	}
	if size <= 0 {
		return nil, fmt.Errorf("fluid: flow %d has non-positive size", id)
	}
	path, err := s.fab.route(s.paths.Take(s.fab.pathLinks(src, dst))[:0], id, src, dst)
	if err != nil {
		return nil, err
	}
	f := &s.slab.Take(1)[0]
	*f = Flow{
		ID: id, Src: src, Dst: dst, SizeBytes: size, Start: start,
		Finish:  -1,
		Ideal:   s.fab.IdealFCT(src, dst, size),
		path:    path,
		remBits: 8 * float64(s.fab.Cfg.wireBytes(size)),
		rate:    -1, // sentinel: placed at its first target
		offset:  s.fab.latencyOffset(src, dst, size),
		actIdx:  -1,
		heapIdx: -1,
	}
	s.flows = append(s.flows, f)
	return f, nil
}

// prepare sorts the flow list into event order (start time, then ID),
// assigns each flow its stable sequence number — the deterministic
// tie-break the finish heap uses — and sizes, once, everything the run
// would otherwise grow: the occupant lists, the active set and finish heap,
// the worklist, and the solvers' scratch.
func (s *Sim) prepare() {
	slices.SortStableFunc(s.flows, func(a, b *Flow) int {
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	total := 0
	for i, f := range s.flows {
		f.seq = int32(i)
		total += len(f.path)
		for _, l := range f.path {
			s.pos[l]++ // a link's room: the flows whose path crosses it
		}
	}
	// crossed counts the links some flow crosses: the most the worklist, a
	// fill or one round's saturated set can hold. most, the largest room,
	// is the most occupants a solve can see.
	crossed, most := 0, 0
	for _, room := range s.pos {
		if room > 0 {
			crossed++
			most = max(most, int(room))
		}
	}
	// Every link's occupant list is carved from one arena with room for
	// each flow whose path crosses the link, the most it can hold at once,
	// so activation never grows a list and occupant order is what the
	// appends make it. The worklist and the saturated set share its
	// allocation.
	ints := make([]int32, total+2*crossed)
	s.work = linkQueue{ring: ints[total : total+crossed]}
	s.sat = ints[total+crossed : total+crossed : total+2*crossed]
	for l := range s.links {
		room := s.pos[l]
		s.links[l].flows = ints[:0:room]
		ints = ints[room:]
		s.pos[l] = 0
	}
	n := len(s.flows)
	ptrs := make([]*Flow, 2*n)
	s.active = ptrs[:0:n]
	s.heap.a = ptrs[n:n]
	s.frozen = make([]bool, n)
	s.fill = make([]fillLink, 0, crossed)
	s.ceil = make([]float64, 0, most)
}

// Run executes the event loop until every flow finishes or the next event
// would pass the deadline, and reports whether all flows completed. Flow
// FCTs are the fluid transfer duration plus the per-path latency offset, so
// an uncontended flow completes in exactly its ideal FCT.
func (s *Sim) Run(deadline sim.Time) *Result {
	s.prepare()
	res := &Result{
		FCT:       &metrics.FCTCollector{Records: make([]metrics.FCTRecord, 0, len(s.flows))},
		Generated: len(s.flows),
	}
	s.st = &res.Stats
	horizon := deadline.Seconds()
	s.tau = s.model.Tau.Seconds()
	if s.tol = s.Tolerance; s.tol == 0 {
		s.tol = defaultTolerance
	}

	next := 0
	t := 0.0
	for next < len(s.flows) || s.heap.Len() > 0 {
		ta := math.Inf(1)
		if next < len(s.flows) {
			ta = s.flows[next].Start.Seconds()
		}
		cutoff := ta
		if s.probeFn != nil && s.nextProbe < cutoff {
			cutoff = s.nextProbe
		}
		ff := s.refineNextFinish(cutoff)
		tf := math.Inf(1)
		if ff != nil {
			tf = ff.key
		}
		if s.probeFn != nil && s.nextProbe <= ta && s.nextProbe <= tf {
			if s.nextProbe > horizon {
				break
			}
			t = s.nextProbe
			s.probeFn(sim.FromSeconds(t), s.active)
			s.nextProbe += s.probeEvery
			continue
		}
		if ta <= tf {
			// Arrival first (ties prefer the arrival so the newcomer
			// competes for the remaining bytes of coincident finishers).
			if ta > horizon {
				break
			}
			t = ta
			first := next
			for next < len(s.flows) && s.flows[next].Start.Seconds() <= t {
				s.activate(s.flows[next], t)
				next++
			}
			s.recompute(t, s.flows[first:next])
		} else {
			if tf > horizon {
				break
			}
			t = tf
			s.finish(ff, t, res)
			s.recompute(t, nil)
		}
		res.Stats.Events++
		if len(s.active) > res.Stats.MaxActive {
			res.Stats.MaxActive = len(s.active)
		}
	}
	return res
}

// activate makes f active at time t: join the active set and the occupant
// list of every path link, seed those links into the worklist, take the
// path minima off the current levels and offer them to the path's links,
// and enter the finish heap (the coming pass assigns the real target and
// key).
func (s *Sim) activate(f *Flow, t float64) {
	f.actIdx = int32(len(s.active))
	s.active = append(s.active, f)
	f.t0 = t
	for _, l := range f.path {
		s.addOccupant(l, f.seq)
		s.enqueueLink(l)
	}
	f.min1, f.min2, f.arg = s.pathMin(f)
	s.offer(f, 1)
	f.key = t
	f.exact = false
	s.heap.Push(f)
}

// finish settles f exactly at its completion instant, records the FCT, and
// removes the flow from the active set (index-tracked swap-remove) and from
// its links' occupant lists, seeding the freed links into the worklist.
func (s *Sim) finish(f *Flow, t float64, res *Result) {
	s.settle(f, t)
	f.remBits = 0
	dur := sim.FromSeconds(t) - f.Start
	f.Finish = f.Start + dur + f.offset
	res.FCT.Record(metrics.FCTRecord{
		FlowID: f.ID, SizeBytes: f.SizeBytes,
		Start: f.Start, Finish: f.Finish, Ideal: f.Ideal,
	})
	res.Completed++
	s.heap.Remove(int(f.heapIdx))
	last := len(s.active) - 1
	moved := s.active[last]
	s.active[f.actIdx] = moved
	moved.actIdx = f.actIdx
	s.active = s.active[:last]
	f.actIdx = -1
	s.offer(f, -1)
	for _, l := range f.path {
		s.removeOccupant(l, f.seq)
		s.enqueueLink(l)
	}
}

// recompute brings the allocation to its new fixed point after an event.
// Small perturbations relax incrementally from the seeded worklist; mass
// arrivals (a worklist already covering a large share of the occupied
// links) and worklist overruns run a full progressive-filling pass. added
// holds the flows activated by this event, for the placement guard.
func (s *Sim) recompute(now float64, added []*Flow) {
	s.passID++
	switch {
	case s.ForceFullPass || s.work.n > s.occupied/4+8:
		s.fullPass(now)
	case s.relax(now):
		s.st.IncrementalPasses++
	default:
		s.fullPass(now) // worklist overran its budget
	}
	// Placement guard: relaxation places an arriving flow as a side effect
	// of its links' level changes; if an arrival perturbed nothing beyond
	// the propagation threshold, place it at its path minimum directly.
	for _, f := range added {
		if f.rate < 0 {
			nt := f.min1
			if math.IsInf(nt, 1) {
				nt = s.pathCapMin(f)
			}
			s.setTarget(f, nt, now)
		}
	}
	if s.Differential {
		s.checkDifferential(now)
		if refCheckState != nil {
			refCheckState(s, now)
		}
	}
}

// setTarget settles f at now under its old profile, installs the new
// max-min target, and re-arms the flow's finish-heap key with the cheap
// lower bound now + rem/max(rate, target) — the exact Newton solve is
// deferred until the flow reaches the heap top (refineNextFinish).
//
// A flow being placed for the first time starts at its fair share with no
// transient. Relaxation may walk a new flow through intermediate levels
// before the pass converges, so retargets within the placing pass move the
// rate with the target (the intermediate value was never a real rate the
// convergence model should decay from).
func (s *Sim) setTarget(f *Flow, nt, now float64) {
	switch {
	case f.rate < 0:
		f.target = nt
		f.rate = nt
		f.t0 = now
		f.placedPass = s.passID
	case f.placedPass == s.passID:
		f.target = nt
		f.rate = nt
	default:
		s.settle(f, now)
		f.target = nt
		if s.tau == 0 {
			f.rate = nt
		}
	}
	s.st.FlowsTouched++
	f.key = now + f.remBits/math.Max(f.rate, f.target)
	f.exact = false
	s.heap.Fix(int(f.heapIdx))
	s.st.HeapInvalidations++
}

// settle integrates f's rate profile from its last settle point to now:
// debit the delivered bits and move the instantaneous rate to the profile
// endpoint. The exponential integrates exactly over any span, so settling
// lazily (only on target changes and at finish) is loss-free.
func (s *Sim) settle(f *Flow, now float64) {
	dt := now - f.t0
	if dt > 0 {
		// The rate decays exponentially from f.rate toward f.target, so the
		// delivered volume is target*dt plus the transient's area
		// (rate-target)*tau*(1-exp(-dt/tau)); one Exp serves both.
		if s.tau == 0 || f.rate == f.target {
			f.remBits -= float64(f.target * dt)
			f.rate = f.target
		} else {
			e := math.Exp(-dt / s.tau)
			f.remBits -= float64(f.target*dt) + float64((f.rate-f.target)*s.tau*(1-e))
			f.rate = f.target + float64((f.rate-f.target)*e)
		}
		if f.remBits < 0 {
			f.remBits = 0
		}
	}
	f.t0 = now
}

// refineNextFinish narrows the finish heap's minimum to an exact time, but
// only as far as needed: refinement stops as soon as the heap minimum — a
// lower bound on every future finish — is at or past cutoff (the next
// arrival or probe instant). This is the lazy lower-bound prune that used
// to live in the linear nextFinish scan, moved into the heap key. Returns
// nil when no finish can precede cutoff (ties go to the cutoff event,
// matching the old scan's arrival/probe-wins semantics).
func (s *Sim) refineNextFinish(cutoff float64) *Flow {
	for s.heap.Len() > 0 {
		top := s.heap.Min()
		if top.exact {
			return top
		}
		if top.key >= cutoff {
			return nil
		}
		top.key = top.t0 + solveFinish(top, s.tau)
		top.exact = true
		s.heap.Fix(int(top.heapIdx))
	}
	return nil
}

// RateAt evaluates f's instantaneous rate at now from the lazy profile
// without mutating any state (0 before the flow's first placement). now
// must not precede the flow's last settle point.
func (s *Sim) RateAt(f *Flow, now sim.Time) float64 {
	if f.rate < 0 {
		return 0
	}
	dt := now.Seconds() - f.t0
	if dt <= 0 || s.tau == 0 || f.rate == f.target {
		return f.rate
	}
	return f.target + float64((f.rate-f.target)*math.Exp(-dt/s.tau))
}

// LinkRateBps sums the instantaneous rates of link l's occupants at now —
// the persistent occupant set makes this O(occupants of l) instead of a
// scan of every active flow's path.
func (s *Sim) LinkRateBps(l int, now sim.Time) float64 {
	sum := 0.0
	for _, fi := range s.links[l].flows {
		sum += s.RateAt(s.flows[fi], now)
	}
	return sum
}

// solveFinish inverts the delivered-volume integral for the time at which
// the flow's remaining bits hit zero (as a delta from the flow's settle
// point t0). The integrand (the instantaneous rate) always lies between
// min(rate, target) and max(rate, target) and both are positive, so the
// root is bracketed by rem/max and rem/min; Newton steps (the derivative
// is the rate, one shared Exp per iteration) converge quadratically, with
// bisection as the in-bracket safeguard.
func solveFinish(f *Flow, tau float64) float64 {
	if f.remBits <= 0 {
		return 0
	}
	if tau == 0 || f.rate == f.target {
		return f.remBits / f.target
	}
	lo := f.remBits / math.Max(f.rate, f.target)
	hi := f.remBits / math.Min(f.rate, f.target)
	dt := lo
	for i := 0; i < 64 && hi-lo > 1e-13*hi; i++ {
		e := math.Exp(-dt / tau)
		g := float64(f.target*dt) + float64((f.rate-f.target)*tau*(1-e)) - f.remBits
		if g < 0 {
			lo = dt
		} else {
			hi = dt
		}
		rate := f.target + float64((f.rate-f.target)*e) // = deliver'(dt), > 0
		next := dt - g/rate
		if !(next > lo && next < hi) {
			next = 0.5 * (lo + hi)
		}
		dt = next
	}
	return hi
}
