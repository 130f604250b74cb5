package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The tests in this file pin the storage lifecycle: what Release leaves of an
// engine, what it leaves in its Store, and that a second run on released
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

// Releasing twice must not lend the storage twice: two engines would then
// share one slab. A store holds one engine at a time.
func TestReleaseTwiceYieldsOneStore(t *testing.T) {
	st := NewStore()
	e := NewEngineOn(st)
	e.Release()
	e.Release()
	a := NewEngineOn(st)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		NewEngineOn(st)
		return ""
	}()
	if !strings.Contains(msg, "not released") {
		t.Fatalf("a second engine on a store the first still holds: panic %q, want one naming the release", msg)
	}
	a.Release()
	NewEngineOn(st).Release()
}

// Events still pending at Release hold callbacks and arguments; none of them
// may stay reachable from the storage the store keeps, however it was left.
func TestReleaseLeavesNoCallbackInStore(t *testing.T) {
	st := NewStore()
	e := NewEngineOn(st)
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
	e.Release()
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

// From the second round on, running a script on an engine built on one
// Store, releasing it and building the next engine on the same Store
// allocates the Engine value and nothing else: slab, freelist, rings and
// radix buckets all come back from the store. One allocation, not zero,
// because handles hold the *Engine and a recycled one would let a stale
// handle cancel a stranger's event. The store is the test's own, so the
// count holds under -race and across collections too.
func TestSecondRunAllocatesNoStorage(t *testing.T) {
	flows := make([]*retxChurn, 32)
	for i := range flows {
		flows[i] = &retxChurn{}
	}
	sources := make([]*serializeChurn, 16)
	for i := range sources {
		sources[i] = &serializeChurn{}
	}
	st := NewStore()
	radixPeak := 0
	round := func() {
		e := NewEngineOn(st)
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
	runtime.GC() // a collection between rounds takes nothing from an owned store
	if allocs := testing.AllocsPerRun(20, round); allocs > 1 {
		t.Fatalf("a run on released storage allocates %.0f objects, want 1 (the Engine)", allocs)
	}
}
