package sim

import (
	"math"
	"testing"
)

// The tests in this file pin the property the lanes rest on: the pop
// sequence, and with it the slot-release sequence and every EngineStats
// counter, depends only on the set of queued entries and their
// (at, schedAt, key, seq) order, never on which lane or radix bucket holds
// them.

// queueUnderTest is the scheduling surface a script drives, implemented by
// the real Engine and by refQueue. Events are named by a script-assigned id;
// onFire(id) runs when one fires.
type queueUnderTest interface {
	now() Time
	schedule(at Time, id int)
	afterArg(d Time, id int)
	afterArgKeyed(d Time, key int32, id int)
	cancel(id int)
	step() bool
	runUntil(deadline Time)
	headKey() (at, schedAt Time, key int32, ok bool)
	stepBefore(at, schedAt Time, key int32) (fired, ok bool)
	advanceTo(t Time)
	pending() int
	stats() EngineStats
}

// engineQueue adapts the real Engine.
type engineQueue struct {
	e       *Engine
	handles []Event // by id
	onFire  func(id int)
}

type engineFiring struct {
	q  *engineQueue
	id int
}

func fireEngineArg(v any) {
	f := v.(*engineFiring)
	f.q.onFire(f.id)
}

func (q *engineQueue) keep(id int, ev Event) {
	if id != len(q.handles) {
		panic("ids must be assigned in scheduling order")
	}
	q.handles = append(q.handles, ev)
}

func (q *engineQueue) now() Time { return q.e.Now() }
func (q *engineQueue) schedule(at Time, id int) {
	q.keep(id, q.e.Schedule(at, func() { q.onFire(id) }))
}
func (q *engineQueue) afterArg(d Time, id int) {
	q.keep(id, q.e.AfterArg(d, fireEngineArg, &engineFiring{q, id}))
}
func (q *engineQueue) afterArgKeyed(d Time, key int32, id int) {
	q.keep(id, q.e.AfterArgKeyed(d, key, fireEngineArg, &engineFiring{q, id}))
}
func (q *engineQueue) cancel(id int)          { q.e.Cancel(q.handles[id]) }
func (q *engineQueue) step() bool             { return q.e.Step() }
func (q *engineQueue) runUntil(deadline Time) { q.e.RunUntil(deadline) }
func (q *engineQueue) headKey() (Time, Time, int32, bool) {
	return q.e.HeadKey()
}
func (q *engineQueue) stepBefore(at, schedAt Time, key int32) (bool, bool) {
	return q.e.StepBefore(at, schedAt, key)
}
func (q *engineQueue) advanceTo(t Time)   { q.e.AdvanceTo(t) }
func (q *engineQueue) pending() int       { return q.e.Pending() }
func (q *engineQueue) stats() EngineStats { return q.e.Stats() }

// refQueue is the reference model: an unsorted bag searched for its minimum
// under (at, schedAt, key, seq), plus the documented slot lifecycle — a slot
// is taken at schedule (LIFO freelist first, else the slab grows) and given
// back only when its entry is popped, fired or swept as a tombstone at the
// front of the order.
type refQueue struct {
	clock  Time
	seq    uint64
	queued []*refEvent
	byID   []*refEvent
	free   []int
	live   int
	st     EngineStats
	onFire func(id int)
}

type refEvent struct {
	at, schedAt Time
	key         int32
	seq         uint64
	id, slot    int
	live        bool
}

func (a *refEvent) before(b *refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.schedAt != b.schedAt:
		return a.schedAt < b.schedAt
	case a.key != b.key:
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (q *refQueue) push(at Time, key int32, id int) {
	if at < q.clock {
		panic("ref: schedule in the past")
	}
	ev := &refEvent{at: at, schedAt: q.clock, key: key, seq: q.seq, id: id, live: true}
	if n := len(q.free); n > 0 {
		ev.slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.st.SlotReuses++
	} else {
		ev.slot = q.st.Slots
		q.st.Slots++
	}
	q.seq++
	q.st.Scheduled++
	q.live++
	q.queued = append(q.queued, ev)
	q.byID = append(q.byID, ev)
}

// min returns the index of the earliest queued entry, or -1.
func (q *refQueue) min() int {
	best := -1
	for i, ev := range q.queued {
		if best < 0 || ev.before(q.queued[best]) {
			best = i
		}
	}
	return best
}

// popMin removes queued[i] and gives its slot back.
func (q *refQueue) popMin(i int) {
	q.free = append(q.free, q.queued[i].slot)
	q.queued[i] = q.queued[len(q.queued)-1]
	q.queued = q.queued[:len(q.queued)-1]
}

// head sweeps tombstones off the front of the order and returns the index of
// the earliest live entry, or -1.
func (q *refQueue) head() int {
	for {
		i := q.min()
		if i < 0 || q.queued[i].live {
			return i
		}
		q.popMin(i)
	}
}

func (q *refQueue) fireNext(limit Time) bool {
	i := q.head()
	if i < 0 || q.queued[i].at > limit {
		return false
	}
	q.fire(i)
	return true
}

func (q *refQueue) fire(i int) {
	ev := q.queued[i]
	q.popMin(i)
	ev.live = false
	q.clock = ev.at
	q.st.Processed++
	q.live--
	q.onFire(ev.id)
}

func (q *refQueue) now() Time                { return q.clock }
func (q *refQueue) schedule(at Time, id int) { q.push(at, KeyNone, id) }
func (q *refQueue) afterArg(d Time, id int)  { q.push(q.clock+d, KeyNone, id) }
func (q *refQueue) afterArgKeyed(d Time, key int32, id int) {
	q.push(q.clock+d, key, id)
}
func (q *refQueue) cancel(id int) {
	if ev := q.byID[id]; ev.live {
		ev.live = false
		q.st.Canceled++
		q.live--
	}
}
func (q *refQueue) step() bool { return q.fireNext(math.MaxInt64) }
func (q *refQueue) runUntil(deadline Time) {
	for q.fireNext(deadline) {
	}
	if q.clock < deadline {
		q.clock = deadline
	}
}
func (q *refQueue) headKey() (Time, Time, int32, bool) {
	i := q.head()
	if i < 0 {
		return 0, 0, 0, false
	}
	ev := q.queued[i]
	return ev.at, ev.schedAt, ev.key, true
}
func (q *refQueue) stepBefore(at, schedAt Time, key int32) (bool, bool) {
	i := q.head()
	if i < 0 {
		return false, false
	}
	// seq 0 on the bound: an equal prefix is not before it.
	if !q.queued[i].before(&refEvent{at: at, schedAt: schedAt, key: key}) {
		return false, true
	}
	q.fire(i)
	return true, true
}
func (q *refQueue) advanceTo(t Time)   { q.clock = t }
func (q *refQueue) pending() int       { return q.live }
func (q *refQueue) stats() EngineStats { return q.st }

// plan is what an event does when it fires, fixed when it is scheduled.
type plan struct {
	act, arg uint8
	budget   uint8 // generations of children it may still spawn
}

// observation is everything a script can see after one operation.
type observation struct {
	op                 uint8
	now                Time
	pending            int
	st                 EngineStats
	stepped            bool
	headAt, headSchdAt Time
	headKey            int32
	headOK             bool
}

// scriptRun interprets one script against one queue. delay is the script's
// dialect (scriptDelay or classDelay); leavePending skips the final drain, so
// the queue is left as a run cut short leaves it.
type scriptRun struct {
	q            queueUnderTest
	delay        func(uint8) Time
	leavePending bool
	plans        []plan // by event id
	fired        []int
	seen         []observation
}

// scriptDelay maps a byte to a delay: mostly 0–7 ps so (at, schedAt)
// collisions are common, sometimes tens to thousands, rarely a far-future
// sentinel.
func scriptDelay(b uint8) Time {
	switch {
	case b < 200:
		return Time(b % 8)
	case b < 250:
		return Time(b-199) * 16
	}
	return Time(b) * 1_000_000
}

// classDelay is the other dialect: every delay is one of five constants, the
// way a packet run's are (a propagation delay, a few serialization times, the
// retransmission timeout). Events scheduled at one instant then land on a
// handful of firing times, so a new entry often ties with a lane's back and a
// pop often finds several sources at the same time — with the keys scripts
// pass in any order, the equal-time paths of enqueue and peek run on most
// operations instead of by luck.
func classDelay(b uint8) Time {
	return [...]Time{0, 3, 3, 40, 4000}[b%5]
}

func (r *scriptRun) newID(p plan) int {
	r.plans = append(r.plans, p)
	return len(r.plans) - 1
}

func (r *scriptRun) onFire(id int) {
	r.fired = append(r.fired, id)
	p := r.plans[id]
	if p.budget == 0 {
		return
	}
	child := plan{act: p.arg, arg: p.act + p.arg, budget: p.budget - 1}
	switch p.act % 4 {
	case 1: // the busy-port pattern: reschedule a short delay ahead
		r.q.afterArg(r.delay(p.arg), r.newID(child))
	case 2: // the retransmission pattern: cancel an earlier timer, arm a long one
		r.q.cancel(int(p.arg) % len(r.plans))
		r.q.afterArg(4000, r.newID(child))
	case 3: // a link delivery
		r.q.afterArgKeyed(r.delay(p.arg), int32(p.arg%3), r.newID(child))
	}
}

func (r *scriptRun) run(script []byte) {
	q := r.q
	next := func() uint8 {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	for len(script) > 0 {
		o := observation{op: next() % 9}
		switch o.op {
		case 0:
			d, p := r.delay(next()), plan{act: next(), arg: next(), budget: 3}
			q.schedule(q.now()+d, r.newID(p))
		case 1:
			d, p := r.delay(next()), plan{act: next(), arg: next(), budget: 3}
			q.afterArg(d, r.newID(p))
		case 2:
			d, key := r.delay(next()), int32(next()%4)
			p := plan{act: next(), arg: next(), budget: 3}
			q.afterArgKeyed(d, key, r.newID(p))
		case 3:
			if b := next(); len(r.plans) > 0 {
				q.cancel(int(b) % len(r.plans))
			}
		case 4:
			o.stepped = q.step()
		case 5:
			q.runUntil(q.now() + r.delay(next()))
		case 6:
			o.headAt, o.headSchdAt, o.headKey, o.headOK = q.headKey()
		case 7:
			// As the sharded executor uses it: never past the local head.
			t := q.now() + r.delay(next())
			if at, _, _, ok := q.headKey(); ok && at < t {
				t = at
			}
			q.advanceTo(t)
		case 8:
			// As the sharded executor's merge loop uses it: a bound that is a
			// window end (schedAt -1), a tick (KeyNone) or a remote delivery's
			// prefix, at or shortly after the clock so that equal prefixes,
			// not-due heads and empty queues all come up.
			at, sel := q.now()+r.delay(next()), next()
			schedAt, key := q.now()-Time(sel%3), int32(sel/3%4)
			switch sel % 5 {
			case 0:
				schedAt = -1
			case 1:
				key = KeyNone
			}
			o.stepped, o.headOK = q.stepBefore(at, schedAt, key)
		}
		o.now, o.pending, o.st = q.now(), q.pending(), q.stats()
		r.seen = append(r.seen, o)
	}
	if r.leavePending {
		return
	}
	for q.step() {
	}
	r.seen = append(r.seen, observation{now: q.now(), pending: q.pending(), st: q.stats()})
}

// runEngine interprets script on e.
func runEngine(e *Engine, script []byte, delay func(uint8) Time, leavePending bool) *scriptRun {
	eq := &engineQueue{e: e}
	r := &scriptRun{q: eq, delay: delay, leavePending: leavePending}
	eq.onFire = r.onFire
	r.run(script)
	return r
}

// checkScript runs script, in the dialect delay, on the reference model, on
// an engine with fresh storage and on an engine built on storage that the
// previous script's engine released in mid-run (events pending, tombstones
// unswept, rings and slab grown and wrapped to wherever that script left
// them), and requires all three to agree.
func checkScript(t *testing.T, previous, script []byte, delay func(uint8) Time) {
	t.Helper()
	rq := &refQueue{}
	want := &scriptRun{q: rq, delay: delay}
	rq.onFire = want.onFire
	want.run(script)

	released := NewStore()
	used := NewEngineOn(released)
	runEngine(used, previous, delay, true)
	used.Release()
	for _, on := range []struct {
		name string
		st   *Store
	}{{"fresh storage", NewStore()}, {"released storage", released}} {
		name, got := on.name, runEngine(NewEngineOn(on.st), script, delay, false)
		for i := range want.fired {
			if i >= len(got.fired) || got.fired[i] != want.fired[i] {
				t.Fatalf("%s: fire order diverges at #%d: engine %v, reference %v", name, i, tail(got.fired, i), tail(want.fired, i))
			}
		}
		if len(got.fired) != len(want.fired) {
			t.Fatalf("%s: engine fired %d events, reference %d", name, len(got.fired), len(want.fired))
		}
		for i := range want.seen {
			if got.seen[i] != want.seen[i] {
				t.Fatalf("%s: after op #%d:\nengine    %+v\nreference %+v", name, i, got.seen[i], want.seen[i])
			}
		}
	}
}

// tail is the few elements of s up to and including index i.
func tail(s []int, i int) []int { return s[max(0, i-3):min(len(s), i+1)] }

// FuzzEngineOrder runs random scripts of Schedule/AfterArg/AfterArgKeyed/
// Cancel/Step/RunUntil/HeadKey/AdvanceTo/StepBefore, with firing events that
// reschedule, cancel and re-arm, against the reference model, and requires
// the same fire order and, after every operation, the same clock, pending
// count, HeadKey or StepBefore answer and EngineStats — the counters the
// golden digests pin. Odd modes read delays as classDelay's few constants.
// Each script runs on fresh storage and on storage released by an engine that
// had run the first split bytes of it (see checkScript).
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 3, 0, 0, 0, 1, 0, 0, 4, 4, 4}, uint8(0), uint8(4))
	// A far-future sentinel, then busy-port chains and retransmission re-arms.
	f.Add([]byte{0, 255, 0, 0, 1, 2, 1, 5, 1, 3, 2, 0, 1, 1, 1, 2, 5, 230, 6, 4, 5, 249}, uint8(0), uint8(13))
	// Keyed collisions at one instant in descending key order.
	f.Add([]byte{2, 4, 3, 0, 0, 2, 4, 2, 0, 0, 2, 4, 1, 0, 0, 2, 4, 0, 0, 0, 1, 4, 0, 0, 6, 4, 6, 4, 4, 4, 4}, uint8(0), uint8(20))
	// A cancelled event beyond a RunUntil deadline is swept when it is the
	// front of the order, so the next schedule recycles its slot.
	f.Add([]byte{0, 210, 0, 0, 0, 205, 0, 0, 3, 1, 5, 5, 1, 1, 0, 0, 4}, uint8(0), uint8(8))
	// Strictly decreasing inserts with cancels of every other one.
	f.Add([]byte{0, 7, 0, 0, 0, 6, 0, 0, 0, 5, 0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 3, 1, 3, 3, 3, 5, 6, 7, 3, 4, 4}, uint8(0), uint8(28))
	// Bounded steps: a bound just short of the live head sweeps the cancelled
	// event ahead of it and fires nothing, a bound equal to the head's prefix
	// holds it back too, window ends then release it, the last on an empty
	// queue.
	f.Add([]byte{2, 3, 1, 0, 0, 2, 5, 2, 0, 0, 3, 0, 8, 5, 7, 8, 5, 18, 1, 1, 0, 0, 8, 6, 0, 8, 6, 0, 8, 255, 0}, uint8(0), uint8(12))
	// Delay classes. Keyed deliveries 3 ps out scheduled at one instant with
	// keys 3, 1, 2, 0, then an unkeyed event there: each push ties with a
	// lane's back and is turned away by key until the radix takes it, and
	// every pop finds the instant's entries spread over lanes and radix.
	f.Add([]byte{2, 1, 3, 3, 1, 2, 2, 1, 3, 2, 2, 1, 2, 3, 3, 2, 2, 0, 3, 1, 1, 1, 1, 1, 6, 4, 6, 4, 4, 6, 4, 4}, uint8(1), uint8(16))
	// Delay classes. Two timers 4000 out, a propagation class and a
	// serialization class re-armed from firing events, stepped past each
	// class's first firing so lane fronts and the radix front keep meeting.
	f.Add([]byte{1, 4, 2, 4, 1, 4, 1, 3, 1, 3, 1, 1, 2, 3, 0, 3, 3, 1, 1, 3, 1, 4, 4, 5, 3, 4, 8, 3, 1, 4, 5, 4, 6, 4, 4, 5, 4}, uint8(1), uint8(9))
	// Four lanes blocked at 7, 6, 5 and 4 ps; the radix takes 1 and 3 ps, in
	// two buckets. The step fires 1 ps, and the refill moves the radix base
	// to 3 ps, ahead of the clock; the event scheduled next at 2 ps fits no
	// lane and is a sorted insert below the base.
	f.Add([]byte{0, 7, 0, 0, 0, 6, 0, 0, 0, 5, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 4, 0, 1, 0, 0, 4, 4, 4}, uint8(0), uint8(17))
	// Delay classes. Lanes blocked at 4000 and 40 ps and by keyed deliveries
	// at 3 ps (keys 3, 2); the radix takes 0 ps and a key-1 delivery at 3 ps.
	// Firing 0 ps refills the radix with the base at 3 ps, then an event at
	// 0 ps lands below the base and a key-0 delivery at 3 ps ties with it,
	// sorted in ahead of the key-1 one.
	f.Add([]byte{0, 4, 0, 0, 0, 3, 0, 0, 2, 1, 3, 0, 0, 2, 1, 2, 0, 0, 0, 0, 0, 0, 2, 1, 1, 0, 0, 4, 0, 0, 0, 0, 2, 1, 0, 0, 0, 4, 4, 4, 4}, uint8(1), uint8(22))
	f.Fuzz(func(t *testing.T, script []byte, mode, split uint8) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		delay := scriptDelay
		if mode%2 == 1 {
			delay = classDelay
		}
		checkScript(t, script[:min(int(split), len(script))], script, delay)
	})
}

// queuedEntries is the number of entries (live and tombstoned) the engine
// holds, and ringSlots the lane storage holding them.
func queuedEntries(e *Engine) (n int) {
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n + radixLen(&e.rad)
}

// radixLen is the number of entries r holds, over all its buckets.
func radixLen(r *radix) (n int) {
	for _, b := range r.b {
		n += len(b)
	}
	return n
}

func ringSlots(e *Engine) (n int) {
	for i := range e.lanes {
		n += len(e.lanes[i].buf)
	}
	return n
}

// A far-future event scheduled first takes the first lane and blocks it for
// the whole run; everything after it must still find a lane.
func TestLanesFarFutureSentinelFirst(t *testing.T) {
	e := NewEngine()
	sentinel := false
	e.Schedule(Second, func() { sentinel = true })
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 10_000 {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	for e.Pending() > 1 {
		e.Step()
		if r := radixLen(&e.rad); r != 0 {
			t.Fatalf("after %d events the radix holds %d entries; a blocked lane sent monotone traffic to the radix", n, r)
		}
	}
	if n != 10_000 || sentinel {
		t.Fatalf("fired %d ticks, sentinel fired early = %v", n, sentinel)
	}
	e.Run()
	if !sentinel || e.Now() != Second {
		t.Fatalf("sentinel fired = %v at %v", sentinel, e.Now())
	}
}

// Strictly decreasing inserts are the worst case for the lanes: each of the
// first laneCount opens a lane and the rest all go to the radix. There every
// one after the first is below the radix base, so all of them are sorted
// inserts into bucket 0 — each at its end, since each is the earliest yet.
// Order must not care.
func TestLanesDecreasingInserts(t *testing.T) {
	const n = 1000
	e := NewEngine()
	var fired []Time
	for i := n; i > 0; i-- {
		e.Schedule(Time(i), func() { fired = append(fired, e.Now()) })
	}
	if got := radixLen(&e.rad); got != n-laneCount {
		t.Fatalf("radix holds %d of %d decreasing inserts, want all but %d", got, n, laneCount)
	}
	if got := len(e.rad.b[0]); got != n-laneCount || e.rad.occupied != 0 {
		t.Fatalf("bucket 0 holds %d of them (occupied %b); each was below the base, want all in bucket 0", got, e.rad.occupied)
	}
	e.Run()
	if len(fired) != n {
		t.Fatalf("fired %d of %d", len(fired), n)
	}
	for i, at := range fired {
		if at != Time(i+1) {
			t.Fatalf("event #%d fired at %v", i, at)
		}
	}
}

// Keyed events colliding on (at, schedAt), scheduled in descending key
// order, land one per lane and then in the radix heap, where bucket 0 must
// sort them by key; they must fire in key order across all of those, ahead of
// the unkeyed event of the same instant.
func TestLanesKeyedCollisionAcrossLanesAndHeap(t *testing.T) {
	const keys = laneCount + 3
	e := NewEngine()
	var order []int32
	rec := func(v any) { order = append(order, v.(int32)) }
	e.AfterArg(5, rec, KeyNone)
	for k := int32(keys - 1); k >= 0; k-- {
		e.AfterArgKeyed(5, k, rec, k)
	}
	if got, want := len(e.rad.b[0]), keys+1-laneCount; got != want || radixLen(&e.rad) != want {
		t.Fatalf("radix bucket 0 holds %d colliding entries, want %d (the collision must straddle lanes and radix)", got, want)
	}
	if _, _, key, ok := e.HeadKey(); !ok || key != 0 {
		t.Fatalf("HeadKey = key %d ok %v, want key 0", key, ok)
	}
	e.Run()
	for i, k := range order[:keys] {
		if k != int32(i) {
			t.Fatalf("collision fired in order %v", order)
		}
	}
	if len(order) != keys+1 || order[keys] != KeyNone {
		t.Fatalf("fired %v, want the unkeyed event last", order)
	}
}

// Over a long run the lane rings hold at most twice the peak number of
// queued entries (live plus not-yet-swept tombstones), however many events
// pass through them.
func TestLanesMemoryBoundedByQueuedEntries(t *testing.T) {
	e := NewEngine()
	startRetxChurn(e, 32, 500_000, 2000) // timers outlive ~20 rounds of 32 flows
	peak := 0
	for e.Step() {
		if q := queuedEntries(e); q > peak {
			peak = q
		}
	}
	st := e.Stats()
	if st.Slots != peak {
		t.Fatalf("slab %d != peak queued entries %d", st.Slots, peak)
	}
	if peak > 2000 {
		t.Fatalf("peak queued entries %d; tombstones are not being swept", peak)
	}
	if limit := laneCount*laneInitCap + 2*peak; ringSlots(e) > limit {
		t.Fatalf("lane rings hold %d slots after %d events; want <= %d for a peak of %d queued entries",
			ringSlots(e), st.Processed, limit, peak)
	}
}

// Over a long run no radix bucket keeps room for more than twice the most
// entries it has held at once (or its starting room), and none holds more
// than the radix did: bucket storage follows occupancy, however many entries
// pass through and however often a refill empties a bucket.
func TestRadixMemoryBoundedByQueuedEntries(t *testing.T) {
	e := NewEngine()
	startSerializeChurn(e, 64, 500_000)
	var held [radixBuckets]int
	peak := 0
	for e.Step() {
		for k, b := range e.rad.b {
			held[k] = max(held[k], len(b))
		}
		peak = max(peak, radixLen(&e.rad))
	}
	if peak < 16 {
		t.Fatalf("the radix held at most %d entries; the churn does not reach it", peak)
	}
	for k, b := range e.rad.b {
		if held[k] > peak || cap(b) > max(bucketInitCap, 2*held[k]) {
			t.Fatalf("bucket %d has room for %d entries after %d events, having held at most %d (the radix at most %d)",
				k, cap(b), e.Stats().Processed, held[k], peak)
		}
	}
}

// TestEngineOrderRandomScripts runs the fuzz property over seeded random
// scripts, so plain `go test` exercises more than the fuzz seed corpus.
func TestEngineOrderRandomScripts(t *testing.T) {
	rng := NewRNG(13)
	var previous []byte
	for i := 0; i < 2000; i++ {
		script := make([]byte, 1+rng.Intn(400))
		for j := range script {
			script[j] = byte(rng.Uint64())
		}
		delay := scriptDelay
		if i%2 == 1 {
			delay = classDelay
		}
		checkScript(t, previous, script, delay)
		previous = script
	}
}
