package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The tests in this file pin the storage lifecycle: what Release leaves of an
// engine, what it leaves in the pool, and that a second run on released
// storage allocates none of it again. That such a run computes the same
// results is FuzzEngineOrder's half (checkScript in order_test.go).

// A released engine is finished but safe to hold: counters and clock stay
// readable, handles are inert, stepping finds nothing, scheduling is a bug
// and says which.
func TestReleasedEngineIsInert(t *testing.T) {
	e := NewEngine()
	fired := 0
	pending := e.Schedule(50, func() { fired++ })
	cancelled := e.Schedule(60, func() { fired++ })
	e.Cancel(cancelled)
	e.Schedule(10, func() { fired++ })
	e.Step()
	want := e.Stats()

	e.Release()
	e.Release() // harmless

	if got := e.Stats(); got != want {
		t.Errorf("Stats after Release = %+v, before %+v", got, want)
	}
	if e.Now() != 10 || e.Pending() != 0 {
		t.Errorf("Now = %v Pending = %d, want 10 and 0", e.Now(), e.Pending())
	}
	if pending.Pending() || pending.At() != 0 || cancelled.Pending() {
		t.Error("a handle from a released engine still reports its event")
	}
	e.Cancel(pending)
	e.Cancel(cancelled)
	if got := e.Stats(); got != want {
		t.Errorf("Cancel on a released engine moved Stats to %+v", got)
	}
	if e.Step() || fired != 1 {
		t.Errorf("a released engine fired a dropped event (fired = %d)", fired)
	}
	if _, _, _, ok := e.HeadKey(); ok {
		t.Error("HeadKey found an event on a released engine")
	}
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("RunUntil on a released engine left the clock at %v", e.Now())
	}
	for name, schedule := range map[string]func(){
		"Schedule":      func() { e.Schedule(200, func() {}) },
		"AfterArg":      func() { e.AfterArg(1, func(any) {}, nil) },
		"AfterArgKeyed": func() { e.AfterArgKeyed(1, 0, func(any) {}, nil) },
		"Ticker":        func() { e.Ticker(1, func() {}) },
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			schedule()
			return ""
		}()
		if !strings.Contains(msg, "Release") {
			t.Errorf("%s on a released engine: panic %q, want one naming Release", name, msg)
		}
	}
}

// Releasing twice must not put the storage in the pool twice: two engines
// would then share one slab.
func TestReleaseTwiceYieldsOneStore(t *testing.T) {
	e := NewEngine()
	e.Release()
	e.Release()
	a, b := NewEngine(), NewEngine()
	if a.st == b.st {
		t.Fatal("two engines were built on one store")
	}
}

// Events still pending at Release hold callbacks and arguments; none of them
// may stay reachable from the storage the pool keeps, however it was left.
func TestReleaseLeavesNoCallbackInStore(t *testing.T) {
	e := newEngine(newStore())
	arg := new(int)
	var evs []Event
	for i := 0; i < 300; i++ {
		evs = append(evs, e.After(Time(1000-i), func() {}), e.AfterArg(Time(i), func(any) {}, arg))
	}
	for i := 0; i < len(evs); i += 3 {
		e.Cancel(evs[i])
	}
	for i := 0; i < 100; i++ {
		e.Step()
	}
	if e.Pending() == 0 {
		t.Fatal("the script left nothing pending")
	}
	if radixLen(&e.rad) == 0 {
		t.Fatal("the script left nothing in the radix")
	}
	st := e.detach()
	buckets := 0
	for _, b := range st.buckets {
		buckets += len(b)
	}
	if len(st.slots) != 0 || len(st.free) != 0 || buckets != 0 {
		t.Fatalf("released store holds %d slots, %d free, %d radix entries; want all empty",
			len(st.slots), len(st.free), buckets)
	}
	if cap(st.slots) < 300 {
		t.Fatalf("released store kept room for %d slots; the slab was not handed back", cap(st.slots))
	}
	for i, s := range st.slots[:cap(st.slots)] {
		if s.fn != nil || s.arg != nil || s.live || s.gen != 0 || s.at != 0 {
			t.Fatalf("slot %d of the released slab is not zero: %+v", i, s)
		}
	}
}

// From the second round on, running a script on an engine, releasing it and
// building the next engine allocates the Engine value and nothing else: slab,
// freelist, rings and radix buckets all come back from the pool. One
// allocation, not zero, because handles hold the *Engine and a recycled one
// would let a stale handle cancel a stranger's event.
func TestSecondRunAllocatesNoStorage(t *testing.T) {
	// AllocsPerRun measures at one P, and a sync.Pool forgets what it holds
	// when the P count changes: change it before the first round, not after.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	flows := make([]*retxChurn, 32)
	for i := range flows {
		flows[i] = &retxChurn{}
	}
	sources := make([]*serializeChurn, 16)
	for i := range sources {
		sources[i] = &serializeChurn{}
	}
	var last *store
	reused, dropped, radixPeak := 0, 0, 0
	round := func() {
		e := NewEngine()
		switch {
		case e.st == last:
			reused++
		case last != nil:
			dropped++
		}
		last = e.st
		for i, c := range flows {
			*c = retxChurn{e: e, timeout: 4096 * 100, left: 2000}
			e.AfterArg(Time(1+i), retxChurnFire, c)
		}
		// Transmitters and decreasing inserts, so the radix buckets are part
		// of the round too.
		for i, c := range sources {
			*c = serializeChurn{e: e, x: uint32(i), left: 2000}
			e.AfterArg(Time(1+i), serializeChurnFire, c)
		}
		for i := 20; i > 0; i-- {
			e.AfterArg(Time(1000*i), retxChurnTimeout, nil)
		}
		for e.Step() {
			radixPeak = max(radixPeak, radixLen(&e.rad))
		}
		e.Release()
	}
	round()
	if radixPeak < 16 {
		t.Fatalf("the radix held at most %d entries in a round; the round does not exercise it", radixPeak)
	}
	allocs := testing.AllocsPerRun(20, round)
	if reused == 0 {
		t.Fatal("no engine in 21 rounds was built on the storage the one before it released")
	}
	if dropped > 0 {
		// Under -race sync.Pool drops one Put in four on purpose; those rounds
		// grew fresh storage and the average says nothing.
		t.Skipf("sync.Pool dropped %d of 21 released stores; allocation count not checked", dropped)
	}
	if allocs > 1 {
		t.Fatalf("a run on released storage allocates %.0f objects, want 1 (the Engine)", allocs)
	}
}
