package packet

import "testing"

func TestPoolRecycles(t *testing.T) {
	p := NewPool()
	a := p.Get()
	a.Type = Data
	a.PayloadBytes = 1452
	a.AddHop(IntHop{SwitchID: 7, B: 100e9})
	p.Put(a)

	b := p.Get()
	if b != a {
		t.Fatal("pool did not recycle the released packet")
	}
	if b.Type != 0 || b.PayloadBytes != 0 || b.FlowID != 0 || len(b.Hops) != 0 {
		t.Fatalf("recycled packet not reset: %+v", b)
	}
	if cap(b.Hops) == 0 {
		t.Fatal("Reset dropped the Hops capacity the pool exists to keep")
	}

	st := p.Stats()
	if st.Gets != 2 || st.News != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v want 0.5", got)
	}
}

func TestPoolResetClearsStaleHops(t *testing.T) {
	p := NewPool()
	a := p.Get()
	a.AddHop(IntHop{SwitchID: 42, QLen: 9999})
	p.Put(a)
	b := p.Get()
	// Appending after recycle must see zeroed backing storage, not hop 42.
	b.Hops = b.Hops[:1]
	if b.Hops[0].SwitchID != 0 || b.Hops[0].QLen != 0 {
		t.Fatalf("stale hop record survived Reset: %+v", b.Hops[0])
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	p := NewPool()
	a := p.Get()
	p.Put(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	p.Put(a)
}

func TestPoolAcceptsForeignPackets(t *testing.T) {
	p := NewPool()
	p.Put(&Packet{Type: Cnp}) // hand-built frame enters the pool
	p.Put(nil)                // no-op
	if p.Free() != 1 {
		t.Fatalf("Free = %d", p.Free())
	}
	if got := p.Get(); got.Type != 0 {
		t.Fatalf("foreign packet not reset: %+v", got)
	}
}

func TestCloneIsNotPooled(t *testing.T) {
	p := NewPool()
	a := p.Get()
	a.AddHop(IntHop{SwitchID: 1})
	c := a.Clone()
	p.Put(a)
	p.Put(c) // the clone is an independent frame; releasing it must not trip
	if p.Free() != 2 {
		t.Fatalf("Free = %d", p.Free())
	}
}

func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	p := NewPool()
	// Warm: one packet with hop capacity in circulation.
	w := p.Get()
	w.AddHop(IntHop{})
	p.Put(w)
	allocs := testing.AllocsPerRun(1000, func() {
		pkt := p.Get()
		pkt.Type = Ack
		pkt.AddHop(IntHop{SwitchID: 3, B: 400e9})
		p.Put(pkt)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/AddHop/Put allocates %.1f/op", allocs)
	}
}

// TestReserveHopsSizesOnce: a fresh frame's first ReserveHops gives its INT
// stack the requested room, a frame that already has a stack keeps it, and
// the room survives a trip through the pool — so stamping up to that many
// hops never grows the stack again.
func TestReserveHopsSizesOnce(t *testing.T) {
	p := NewPool()
	a := p.Get()
	if cap(a.Hops) != 0 {
		t.Fatalf("Get presized the INT stack to %d", cap(a.Hops))
	}
	a.ReserveHops(5)
	if len(a.Hops) != 0 || cap(a.Hops) != 5 {
		t.Fatalf("ReserveHops(5): len %d cap %d", len(a.Hops), cap(a.Hops))
	}
	a.ReserveHops(9) // already sized: no change
	for i := 0; i < 5; i++ {
		a.AddHop(IntHop{SwitchID: int32(i)})
	}
	if cap(a.Hops) != 5 {
		t.Fatalf("five stamps regrew the stack to %d", cap(a.Hops))
	}
	p.Put(a)
	b := p.Get()
	b.ReserveHops(5)
	allocs := testing.AllocsPerRun(10, func() {
		b.Hops = b.Hops[:0]
		for i := 0; i < 5; i++ {
			b.AddHop(IntHop{})
		}
	})
	if b != a || cap(b.Hops) != 5 || allocs != 0 {
		t.Fatalf("a recycled frame lost its stack: cap %d, %v allocs per refill", cap(b.Hops), allocs)
	}
}
