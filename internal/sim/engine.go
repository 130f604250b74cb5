package sim

import (
	"fmt"
	"math"
	"sync"
)

// The engine is allocation-free in steady state. Events live in a
// slot slab owned by the engine; Schedule hands out value-type handles
// carrying a generation counter, freed slots recycle through a freelist, and
// cancellation is O(1) lazy tombstoning swept when the priority queue pops
// the entry. The (time, schedAt, key, seq) tiebreak gives every event a
// unique position in a strict total order, so firing order — and therefore
// every downstream measurement — is deterministic and, for keyed link
// deliveries, reproducible by the sharded parallel executor (see HeadKey).
//
// The priority queue is a few sorted-run lanes (see lane) in front of a radix
// heap over firing times (see radix). Because the order is strict and unique,
// the pop sequence is a property of the set of queued entries, not of the
// structure holding them: which lane or bucket an entry sits in changes only
// what a push and a pop cost.

// Event is a handle to a scheduled callback, returned by Schedule/After so
// the caller can cancel it (e.g. a retransmission timer disarmed by an ACK).
// It is a value type; the zero Event refers to nothing and is safe to Cancel
// or query. A handle goes stale once its event fires or is cancelled: stale
// handles are inert — in particular, cancelling one never affects a later
// event that recycled the same internal slot (the generation check).
type Event struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Pending reports whether the event is still scheduled: not yet fired and
// not cancelled. Zero and stale handles report false.
func (ev Event) Pending() bool {
	if ev.e == nil || int(ev.slot) >= len(ev.e.slots) {
		return false // zero handle, or the engine's storage was released
	}
	s := &ev.e.slots[ev.slot]
	return s.gen == ev.gen && s.live
}

// At returns the firing time of a pending event, and 0 for zero or stale
// handles (check Pending when the distinction matters).
func (ev Event) At() Time {
	if !ev.Pending() {
		return 0
	}
	return ev.e.slots[ev.slot].at
}

// slot is the pooled storage behind one Event handle. A slot is occupied
// from Schedule until its queue entry is popped (fired or swept as a
// tombstone); only then does it return to the freelist with its generation
// bumped, which is what invalidates outstanding handles.
type slot struct {
	gen  uint32
	live bool // scheduled and not cancelled
	at   Time
	fn   func(any)
	arg  any
}

// KeyNone is the ordering key of every event scheduled without an explicit
// key. It sorts after all explicit keys, so keyed events (link deliveries)
// fire before unkeyed ones when both share an (at, schedAt) instant — the
// canonical collision order the sharded executor reproduces (see HeadKey).
const KeyNone int32 = math.MaxInt32

// entry is one priority-queue element. It carries the ordering key inline so
// sift operations never chase into the slot slab.
type entry struct {
	at      Time
	schedAt Time   // engine time when the event was scheduled (see HeadKey)
	seq     uint64 // final tiebreak: scheduling order
	keySlot
}

// keySlot is entry's last eight bytes as one field, because the compiler
// keeps a struct value in registers only up to four fields: with five, every
// entry passed, compared or sifted went through the stack in 8-byte stores
// read back as 16-byte loads.
type keySlot struct {
	key  int32 // canonical collision key (KeyNone unless keyed)
	slot int32
}

// before orders by (at, schedAt, key, seq). Because seq is assigned in
// scheduling order and the clock never moves backwards, seq is monotone in
// schedAt; for unkeyed events this order is therefore identical to the
// classic (at, seq) order. The key term canonicalizes only true collisions:
// distinct events sharing both firing and scheduling instants.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// lane is a FIFO ring of entries in nondecreasing queue order: a sorted run.
// Most scheduling in a simulation is monotone per source — a constant-delay
// timer re-armed at a later now, deliveries on one link, serializations of
// equal-sized frames — so appending to the back of a run and popping from its
// front replaces two O(log n) sifts with two O(1) ring operations. It also
// keeps long-lived tombstones (a retransmission timer cancelled by every ACK,
// 4 ms out) in a ring nobody walks instead of in the overflow queue.
type lane struct {
	buf  []entry // ring storage; len is a power of two
	head int     // index of the earliest entry
	n    int     // entries held
}

func (l *lane) front() *entry { return &l.buf[l.head] }

func (l *lane) back() *entry { return &l.buf[(l.head+l.n-1)&(len(l.buf)-1)] }

// frontAt is the firing time of the lane's earliest entry, or emptyFront.
// The ring always has storage, so the load needs no guard and the choice
// compiles to a conditional move.
func (l *lane) frontAt() Time {
	at := l.buf[l.head].at
	if l.n == 0 {
		at = emptyFront
	}
	return at
}

func (l *lane) pushBack(ent entry) {
	if l.n == len(l.buf) {
		grown := make([]entry, 2*len(l.buf))
		k := copy(grown, l.buf[l.head:])
		copy(grown[k:], l.buf[:l.head])
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ent
	l.n++
}

func (l *lane) popFront() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

const (
	// laneCount is how many sorted runs front the radix. A push takes the
	// first lane whose back is not after the new entry, so the lanes sort
	// themselves by horizon: far timers settle in one, link deliveries in
	// the next, serializations after that. The radix keeps what fits none,
	// which is not little: 37 % of pushes on fct-websearch, 45 % on
	// fct-hadoop, 38 % over the chain figures — above all the serialization
	// completions of differently sized frames (DESIGN.md has the table).
	// Each extra lane costs every push and every peek one more compare, and
	// peek's selects are written out for four.
	laneCount = 4
	// laneInitCap is each lane's starting ring size, carved from one
	// allocation in NewEngine.
	laneInitCap = 64
	// bucketInitCap is each radix bucket's starting capacity, carved from one
	// allocation beside the rings. A bucket grows on its own high-water mark,
	// not the radix's, so without room to start with, buckets that a run
	// reaches late would each grow on the hot path long after warm-up.
	bucketInitCap = 8
	// radixSrc names the radix where a lane index names a lane.
	radixSrc = laneCount

	// emptyBack and emptyFront are what the time index holds for a lane (or
	// the radix) with nothing in it. Every firing time is after emptyBack, so
	// an empty lane takes any push; none is before emptyFront, so an empty
	// source never wins a peek on time.
	emptyBack  Time = math.MinInt64
	emptyFront Time = math.MaxInt64
)

// EngineStats is the scheduler's own performance telemetry, surfaced by the
// experiment harness so every sweep tracks engine throughput and pool
// efficiency as first-class outputs.
type EngineStats struct {
	// Processed counts events that fired.
	Processed uint64
	// Scheduled counts Schedule/After calls.
	Scheduled uint64
	// Canceled counts effective Cancel calls (stale/no-op cancels excluded).
	Canceled uint64
	// SlotReuses counts schedules served from the freelist instead of
	// growing the slab — the event-pool hit count.
	SlotReuses uint64
	// Slots is the slab size: the high-water mark of simultaneously live
	// events (plus unswept tombstones).
	Slots int
}

// ReuseRate is SlotReuses/Scheduled: the fraction of schedules that recycled
// a freed slot (approaches 1 in steady state).
func (s EngineStats) ReuseRate() float64 {
	if s.Scheduled == 0 {
		return 0
	}
	return float64(s.SlotReuses) / float64(s.Scheduled)
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is not usable; construct with NewEngine. An Engine must be
// driven from one goroutine; the harness-level parallelism in this project
// runs one independent Engine per (scheme, seed, sweep-point) instead of
// parallelizing inside a run.
type Engine struct {
	// The time index: the firing time of each lane's front and of the radix
	// front, and of each lane's back, 72 bytes side by side. A pop finds its
	// source and a push its lane from integer compares here, and looks at a
	// queued entry's full (at, schedAt, key, seq) only when two times are
	// equal. Kept by enqueue and pop, the only code that moves a front or a
	// back.
	frontAt [laneCount + 1]Time // [radixSrc] is the radix front's
	backAt  [laneCount]Time

	now     Time
	seq     uint64
	lanes   [laneCount]lane
	slots   []slot
	free    []int32
	live    int // scheduled, not cancelled, not fired
	stopped bool

	processed  uint64
	scheduled  uint64
	canceled   uint64
	slotReuses uint64

	// st is where lanes, radix buckets, slots and free came from and go back
	// to; nil once Release has run. slab is len(slots) as Release found it,
	// so Stats outlives the storage.
	st   *store
	slab int

	rad radix // entries that fit no lane when pushed
}

// store is an engine's growable storage: the slot slab, the freelist, the
// lane rings and the radix buckets. It outlives the engine: Release hands it
// to storePool at the size the run grew it to and the next NewEngine starts
// on it, empty, so a battery of runs grows one slab once instead of once per
// run. Everything in a pooled store is length 0, and every slot within the
// slab's capacity is zero.
type store struct {
	slots   []slot
	free    []int32
	rings   [laneCount][]entry
	buckets [radixBuckets][]entry
}

var storePool = sync.Pool{New: func() any { return newStore() }}

func newStore() *store {
	st := &store{}
	rings := make([]entry, laneCount*laneInitCap)
	for i := range st.rings {
		st.rings[i] = rings[i*laneInitCap : (i+1)*laneInitCap : (i+1)*laneInitCap]
	}
	buckets := make([]entry, radixBuckets*bucketInitCap)
	for k := range st.buckets {
		st.buckets[k] = buckets[k*bucketInitCap : k*bucketInitCap : (k+1)*bucketInitCap]
	}
	return st
}

// NewEngine returns an engine positioned at time zero, on storage a released
// engine left behind when there is some. Nothing about the earlier run shows:
// the slab starts at length 0, so Slots and SlotReuses count as on fresh
// storage.
func NewEngine() *Engine { return newEngine(storePool.Get().(*store)) }

func newEngine(st *store) *Engine {
	e := &Engine{st: st, slots: st.slots, free: st.free}
	for i := range e.lanes {
		e.lanes[i].buf = st.rings[i]
	}
	e.rad.b = st.buckets
	e.emptyIndex()
	return e
}

// emptyIndex sets the time index to "nothing queued anywhere".
func (e *Engine) emptyIndex() {
	for i := range e.backAt {
		e.backAt[i] = emptyBack
	}
	for i := range e.frontAt {
		e.frontAt[i] = emptyFront
	}
}

// Release gives the engine's storage back for the next NewEngine and ends the
// engine's life: events still pending are dropped without firing, every
// outstanding handle goes inert (Pending false, Cancel a no-op), Step and
// Run find nothing, Now and Stats keep their last values, and scheduling
// panics. Call it when a run's results have been read; a second call does
// nothing. An engine that is never released is simply garbage-collected with
// its storage.
func (e *Engine) Release() {
	if st := e.detach(); st != nil {
		storePool.Put(st)
	}
}

// detach is Release up to the pool: it returns the storage, emptied, or nil
// if it is already gone.
func (e *Engine) detach() *store {
	st := e.st
	if st == nil {
		return nil
	}
	e.slab = len(e.slots)
	clear(e.slots) // pending events' callbacks and arguments must not outlive the run
	st.slots, st.free = e.slots[:0], e.free[:0]
	for i := range e.lanes {
		st.rings[i] = e.lanes[i].buf
		e.lanes[i] = lane{}
	}
	for k, b := range e.rad.b {
		st.buckets[k] = b[:0]
	}
	e.rad = radix{}
	e.emptyIndex()
	e.st, e.slots, e.free, e.live = nil, nil, nil, 0
	return st
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns how many events have fired so far (for harness stats).
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return e.live }

// Stats returns the engine's cumulative scheduling telemetry.
func (e *Engine) Stats() EngineStats {
	slots := len(e.slots)
	if e.st == nil {
		slots = e.slab
	}
	return EngineStats{
		Processed:  e.processed,
		Scheduled:  e.scheduled,
		Canceled:   e.canceled,
		SlotReuses: e.slotReuses,
		Slots:      slots,
	}
}

// alloc returns a free slot index, recycling before growing the slab.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		e.slotReuses++
		return i
	}
	if e.st == nil {
		panic("sim: schedule on an engine whose storage was given back by Release")
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// release returns a popped slot to the freelist, bumping the generation so
// every outstanding handle to it goes stale.
func (e *Engine) release(i int32) {
	s := &e.slots[i]
	s.gen++
	s.live = false
	s.at = 0
	s.fn = nil
	s.arg = nil
	e.free = append(e.free, i)
}

func (e *Engine) push(at Time, key int32, fn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	i := e.alloc()
	s := &e.slots[i]
	s.live = true
	s.at = at
	s.fn = fn
	s.arg = arg
	e.enqueue(entry{at: at, schedAt: e.now, seq: e.seq, keySlot: keySlot{key, i}})
	e.seq++
	e.scheduled++
	e.live++
	return Event{e: e, slot: i, gen: s.gen}
}

// enqueue files ent in the first lane it extends as a sorted run, else in
// the radix. A later firing time than the lane's back settles it from the
// time index alone; only an equal one needs the back entry itself, and there
// seq is unique, so "not before the lane's back" means strictly after it.
func (e *Engine) enqueue(ent entry) {
	for i := range e.backAt {
		back := e.backAt[i]
		if ent.at < back || (ent.at == back && ent.before(*e.lanes[i].back())) {
			continue
		}
		if back == emptyBack {
			e.frontAt[i] = ent.at
		}
		e.backAt[i] = ent.at
		e.lanes[i].pushBack(ent)
		return
	}
	e.rad.push(ent)
	e.frontAt[radixSrc] = e.rad.front().at
}

// peek's selects below are written out for four lanes and the radix.
var _ = [1]struct{}{}[laneCount-4]

// peek returns the earliest queued entry (live or tombstoned) and the
// structure holding it: the minimum over the lane fronts and the radix front.
// The pointer is valid until the next enqueue or pop; nil means nothing is
// queued.
func (e *Engine) peek() (first *entry, src int) {
	// The earliest firing time, the first source holding it and how many
	// sources share it, each statement one conditional move: which source is
	// next is the least predictable thing in a run, and as a loop this
	// compiles to branches and measured 5-10 % slower on the chain figures.
	f := &e.frontAt
	m0 := f[0]
	m1 := min(m0, f[1])
	m2 := min(m1, f[2])
	m3 := min(m2, f[3])
	at := min(m3, f[4])
	// The first source at the minimum: one past every prefix still above it.
	if m0 > at {
		src++
	}
	if m1 > at {
		src++
	}
	if m2 > at {
		src++
	}
	if m3 > at {
		src++
	}
	same := 0
	if f[0] == at {
		same++
	}
	if f[1] == at {
		same++
	}
	if f[2] == at {
		same++
	}
	if f[3] == at {
		same++
	}
	if f[4] == at {
		same++
	}
	if same > 1 {
		// Several sources share the earliest time (or all are empty): the
		// rest of the key decides among them.
		return e.peekTied(at)
	}
	if src == radixSrc {
		return e.rad.front(), radixSrc
	}
	return e.lanes[src].front(), src
}

// peekTied is peek among the sources whose front fires at at, by the full
// order. at == emptyFront also matches empty sources, which hold no entry
// to compare.
func (e *Engine) peekTied(at Time) (first *entry, src int) {
	if e.frontAt[radixSrc] == at && len(e.rad.b[0]) > 0 {
		first, src = e.rad.front(), radixSrc
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		if e.frontAt[i] != at || l.n == 0 {
			continue
		}
		if f := l.front(); first == nil || f.before(*first) {
			first, src = f, i
		}
	}
	return first, src
}

// pop removes the entry peek just returned from src.
func (e *Engine) pop(src int) {
	if src == radixSrc {
		e.rad.pop()
		e.frontAt[radixSrc] = e.rad.frontAt()
		return
	}
	l := &e.lanes[src]
	l.popFront()
	e.frontAt[src] = l.frontAt()
	back := e.backAt[src]
	if l.n == 0 {
		back = emptyBack
	}
	e.backAt[src] = back
}

// head sweeps tombstones off the front of the order and returns the earliest
// live entry as peek would, or nil. This is the only place tombstones are
// released: a cancelled event keeps its slot until everything ordered before
// it has been popped.
func (e *Engine) head() (first *entry, src int) {
	for {
		first, src = e.peek()
		if first == nil || e.slots[first.slot].live {
			return first, src
		}
		i := first.slot
		e.pop(src)
		e.release(i)
	}
}

// fireNext fires the earliest live event if it is due by limit and, given a
// bound, orders before it, and reports whether it did. Tombstones ahead of
// that event are swept either way.
func (e *Engine) fireNext(limit Time, bound *entry) bool {
	ent, src := e.head()
	if ent == nil || ent.at > limit || (bound != nil && !ent.before(*bound)) {
		return false
	}
	i, at := ent.slot, ent.at
	e.pop(src)
	s := &e.slots[i]
	fn, arg := s.fn, s.arg
	e.release(i) // free before firing so fn can recycle the slot
	e.now = at
	e.processed++
	e.live--
	fn(arg)
	return true
}

// Schedule registers fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a modelling bug, and silently reordering time
// would corrupt every downstream measurement.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	return e.push(at, KeyNone, call, fn)
}

// call is the one callback form a slot holds for a Schedule'd func(): the
// func rides as the argument (a func value converts to any without
// allocating).
func call(fn any) { fn.(func())() }

// After registers fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// ScheduleArg registers fn(arg) to run at absolute time at. It is the
// allocation-free alternative to Schedule for hot paths: passing a
// package-level function plus a pointer argument avoids the closure capture
// a literal would heap-allocate on every call.
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	return e.push(at, KeyNone, fn, arg)
}

// AfterArg registers fn(arg) to run d after the current time; see
// ScheduleArg.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.ScheduleArg(e.now+d, fn, arg)
}

// AfterArgKeyed is AfterArg with an explicit collision key below KeyNone.
// Events that share an (at, schedAt) instant fire in key order, regardless
// of scheduling order within the instant — the hook netsim uses to give
// simultaneous link deliveries a canonical, executor-independent order.
func (e *Engine) AfterArgKeyed(d Time, key int32, fn func(any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	if key < 0 || key == KeyNone {
		panic(fmt.Sprintf("sim: event key %d out of range", key))
	}
	return e.push(e.now+d, key, fn, arg)
}

// Cancel deactivates ev if it has not fired. Safe to call on zero or stale
// handles (including a handle whose slot has been recycled by a newer event
// — the generation check makes that a no-op). The queue entry is tombstoned
// in O(1) and swept when it reaches the front.
func (e *Engine) Cancel(ev Event) {
	if ev.e != e || ev.e == nil || int(ev.slot) >= len(e.slots) {
		return // not this engine's handle, or the storage was released
	}
	s := &e.slots[ev.slot]
	if s.gen != ev.gen || !s.live {
		return
	}
	s.live = false
	s.fn = nil
	s.arg = nil
	e.canceled++
	e.live--
}

// Stop makes the current Run/RunUntil call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
func (e *Engine) Step() bool { return e.fireNext(math.MaxInt64, nil) }

// Run drains the event queue or stops when Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil processes events with firing time <= deadline, then advances the
// clock to the deadline. Events scheduled exactly at the deadline do fire.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.fireNext(deadline, nil) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// HeadKey peeks at the earliest pending event and returns its ordering key
// prefix (firing time, scheduling time, collision key). The triple is the
// merge key used by the sharded parallel executor: it is meaningful across
// engines — a cross-shard frame delivery carries the same triple — so the
// shard loop can merge its calendar of remote deliveries with the local
// queue in exactly the serial engine's order. Tombstones are swept off the
// front so the answer reflects a live event. ok is false when the queue is
// empty.
func (e *Engine) HeadKey() (at, schedAt Time, key int32, ok bool) {
	ent, _ := e.head()
	if ent == nil {
		return 0, 0, 0, false
	}
	return ent.at, ent.schedAt, ent.key, true
}

// StepBefore fires the earliest pending event iff its HeadKey prefix orders
// strictly below (at, schedAt, key), sweeping tombstones ahead of it either
// way: HeadKey, the comparison and Step in one pass over the queue front, for
// the sharded executor's merge loop. ok is false when the queue is empty.
func (e *Engine) StepBefore(at, schedAt Time, key int32) (fired, ok bool) {
	// seq 0 on the bound: an entry with an equal prefix is not before it.
	fired = e.fireNext(math.MaxInt64, &entry{at: at, schedAt: schedAt, keySlot: keySlot{key: key}})
	return fired, fired || e.live > 0
}

// AdvanceTo moves the clock forward to t without firing anything. The
// sharded executor uses it to position an engine at a remote delivery's
// timestamp before invoking the receive path, and to align all engines on a
// window boundary. Moving time backwards panics, exactly like scheduling in
// the past.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo %v before now %v", t, e.now))
	}
	e.now = t
}

// ticker is the reusable state behind Engine.Ticker: one allocation at
// creation, zero per tick (the reschedule goes through the arg path).
type ticker struct {
	e       *Engine
	period  Time
	fn      func()
	stopped bool
	ev      Event
}

func tickerFire(v any) {
	t := v.(*ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.ev = t.e.AfterArg(t.period, tickerFire, t)
	}
}

// Ticker invokes fn every period until cancel is invoked or the engine
// drains. It returns a stop function. The first tick fires one period from
// now.
func (e *Engine) Ticker(period Time, fn func()) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	t := &ticker{e: e, period: period, fn: fn}
	t.ev = e.AfterArg(period, tickerFire, t)
	return func() {
		t.stopped = true
		e.Cancel(t.ev)
	}
}
