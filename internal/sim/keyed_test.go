package sim

import "testing"

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

// TestAfterArgKeyedValidation pins the argument contract: keys are positive
// and strictly below KeyNone (the unkeyed sentinel), callbacks are non-nil,
// delays are non-negative.
func TestAfterArgKeyedValidation(t *testing.T) {
	fn := func(any) {}
	mustPanic(t, "negative key", func() {
		NewEngine().AfterArgKeyed(0, -1, fn, nil)
	})
	mustPanic(t, "KeyNone key", func() {
		NewEngine().AfterArgKeyed(0, KeyNone, fn, nil)
	})
	mustPanic(t, "nil callback", func() {
		NewEngine().AfterArgKeyed(0, 1, nil, nil)
	})
	mustPanic(t, "negative delay", func() {
		NewEngine().AfterArgKeyed(-1, 1, fn, nil)
	})
	// Key 0 and KeyNone-1 are both legal endpoints.
	e := NewEngine()
	e.AfterArgKeyed(0, 0, fn, nil)
	e.AfterArgKeyed(0, KeyNone-1, fn, nil)
}

// TestKeyedOrderAtInstant checks the canonical collision order: events that
// share (at, schedAt) fire in key order regardless of scheduling order, and
// keyed events precede unkeyed ones at the same instant (every real key is
// below the KeyNone sentinel).
func TestKeyedOrderAtInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }

	// Schedule out of key order, all at t=10 from t=0 (same schedAt).
	e.Schedule(10, func() { got = append(got, 999) }) // unkeyed: fires last
	e.AfterArgKeyed(10, 7, rec, 7)
	e.AfterArgKeyed(10, 2, rec, 2)
	e.AfterArgKeyed(10, 5, rec, 5)
	e.AfterArgKeyed(10, 0, rec, 0)
	e.Run()

	want := []int{0, 2, 5, 7, 999}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v (canonical key order, unkeyed last)", got, want)
		}
	}
}

// TestKeyedOrderSchedAtDominates checks that scheduling time outranks the
// key: an event scheduled earlier (smaller schedAt) fires before a
// same-deadline event scheduled later, even when the later one has a smaller
// key. This is what makes the comparator an extension of the engine's
// original FIFO tiebreak rather than a reordering of it.
func TestKeyedOrderSchedAtDominates(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }

	e.AfterArgKeyed(10, 9, rec, 9) // schedAt 0
	e.Schedule(5, func() {
		e.AfterArgKeyed(5, 1, rec, 1) // same deadline 10, schedAt 5
	})
	e.Run()

	if len(got) != 2 || got[0] != 9 || got[1] != 1 {
		t.Fatalf("fired %v, want [9 1] (earlier schedAt wins over smaller key)", got)
	}
}

// TestHeadKeyPrefix pins the HeadKey peek the sharded merge loop depends on:
// it reports the live head's (at, schedAt, key) triple, sweeps tombstones,
// and reports ok=false on an empty queue.
func TestHeadKeyPrefix(t *testing.T) {
	e := NewEngine()
	if _, _, _, ok := e.HeadKey(); ok {
		t.Fatal("empty engine reported a head")
	}

	fn := func(any) {}
	ev := e.AfterArgKeyed(10, 3, fn, nil)
	e.Schedule(20, func() {})

	at, schedAt, key, ok := e.HeadKey()
	if !ok || at != 10 || schedAt != 0 || key != 3 {
		t.Fatalf("HeadKey = (%v, %v, %d, %v), want (10, 0, 3, true)", at, schedAt, key, ok)
	}

	// Cancel the keyed head: the peek must sweep the tombstone and report
	// the unkeyed event with the KeyNone sentinel.
	e.Cancel(ev)
	at, schedAt, key, ok = e.HeadKey()
	if !ok || at != 20 || schedAt != 0 || key != KeyNone {
		t.Fatalf("after cancel HeadKey = (%v, %v, %d, %v), want (20, 0, %d, true)",
			at, schedAt, key, ok, KeyNone)
	}

	e.Run()
	if _, _, _, ok := e.HeadKey(); ok {
		t.Fatal("drained engine reported a head")
	}
}

// TestStepBefore pins the merge loop's bounded step: the head fires only when
// its (at, schedAt, key) prefix is strictly below the bound, a bound equal to
// the prefix holds it back, an empty queue reads differently from a head that
// is not due, and a tombstone ahead of the head is swept even when nothing
// fires.
func TestStepBefore(t *testing.T) {
	e := NewEngine()
	if fired, ok := e.StepBefore(100, 0, 0); fired || ok {
		t.Fatalf("empty engine: StepBefore = (%v, %v), want (false, false)", fired, ok)
	}

	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }
	dead := e.AfterArgKeyed(5, 1, rec, 1)
	e.AfterArgKeyed(10, 3, rec, 3)
	e.Schedule(10, func() { got = append(got, 999) })

	e.Cancel(dead)
	if fired, ok := e.StepBefore(10, 0, 3); fired || !ok {
		t.Fatalf("bound equal to the head's prefix: StepBefore = (%v, %v), want (false, true)", fired, ok)
	}
	if len(got) != 0 || e.Now() != 0 || e.Pending() != 2 {
		t.Fatalf("a held-back step fired %v, moved the clock to %v or left %d pending", got, e.Now(), e.Pending())
	}
	// The tombstone at t=5 was the front of the order: swept, so the next
	// schedule recycles its slot instead of growing the slab.
	e.AfterArg(50, rec, 50)
	if st := e.Stats(); st.Slots != 3 || st.SlotReuses != 1 {
		t.Fatalf("after a held-back step over a tombstone: %+v, want 3 slots and 1 reuse", st)
	}

	for _, b := range []struct {
		at, schedAt Time
		key         int32
		fires       bool
	}{
		{10, 0, 4, true},        // key 3 < 4
		{10, 0, KeyNone, false}, // the unkeyed head's own prefix
		{10, 1, 0, true},        // schedAt 0 < 1 outranks the key
		{50, 0, KeyNone, false},
		{51, -1, 0, true}, // a window end: everything strictly before t=51
	} {
		if fired, ok := e.StepBefore(b.at, b.schedAt, b.key); fired != b.fires || !ok {
			t.Fatalf("StepBefore(%v, %v, %d) = (%v, %v), want (%v, true)", b.at, b.schedAt, b.key, fired, ok, b.fires)
		}
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 999 || got[2] != 50 || e.Now() != 50 {
		t.Fatalf("fired %v, clock %v; want [3 999 50] at 50", got, e.Now())
	}
	if fired, ok := e.StepBefore(1000, 0, 0); fired || ok {
		t.Fatalf("drained engine: StepBefore = (%v, %v), want (false, false)", fired, ok)
	}
}

// TestAdvanceTo pins the clock-positioning primitive the shard loop uses
// before injecting a remote delivery: forward moves are exact, backward
// moves panic.
func TestAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(42)
	if e.Now() != 42 {
		t.Fatalf("Now = %v after AdvanceTo(42)", e.Now())
	}
	e.AdvanceTo(42) // idempotent
	mustPanic(t, "backward AdvanceTo", func() { e.AdvanceTo(41) })
}
