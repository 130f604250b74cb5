package packet

import (
	"testing"

	"repro/internal/chunk"
)

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

// TestReserveHopsSizesOnce: a fresh frame's first Pool.ReserveHops gives its
// INT stack the requested room, a frame that already has a stack keeps it,
// and the room survives a trip through the pool — so stamping up to that
// many hops never grows the stack again.
func TestReserveHopsSizesOnce(t *testing.T) {
	p := NewPool()
	a := p.Get()
	if cap(a.Hops) != 0 {
		t.Fatalf("Get presized the INT stack to %d", cap(a.Hops))
	}
	p.ReserveHops(a, 5)
	if len(a.Hops) != 0 || cap(a.Hops) != 5 {
		t.Fatalf("ReserveHops(5): len %d cap %d", len(a.Hops), cap(a.Hops))
	}
	p.ReserveHops(a, 9) // already sized: no change
	for i := 0; i < 5; i++ {
		a.AddHop(IntHop{SwitchID: int32(i)})
	}
	if cap(a.Hops) != 5 {
		t.Fatalf("five stamps regrew the stack to %d", cap(a.Hops))
	}
	p.Put(a)
	b := p.Get()
	p.ReserveHops(b, 5)
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

// TestPoolCarvesFromChunks: misses carve frames, and first stamps carve INT
// stacks, from chunks — a chunk's worth of each costs one allocation — while
// News still counts every frame the pool made. A carved stack is exactly its
// reserved size, so an append past it leaves the next stack alone.
func TestPoolCarvesFromChunks(t *testing.T) {
	const frames = 310
	allocs := testing.AllocsPerRun(5, func() {
		p := NewPool()
		for i := 0; i < frames; i++ {
			p.ReserveHops(p.Get(), 4)
		}
	})
	// Ten chunks of 31 frames, and for the 1,240 records of 310 four-record
	// stacks hop chunks of 32, 64 and then 102 records, 25 stacks each: 24
	// allocations, where one per frame and one per stack made 620.
	if allocs > 24 {
		t.Errorf("carving %d frames with INT stacks cost %v allocations, want 24", frames, allocs)
	}

	p := NewPool()
	var held []*Packet
	for i := 0; i < chunk.Min; i++ {
		pkt := p.Get()
		p.ReserveHops(pkt, 4)
		held = append(held, pkt)
	}
	if st := p.Stats(); st.News != chunk.Min || st.Gets != chunk.Min {
		t.Fatalf("stats %+v, want %d gets and news", st, chunk.Min)
	}
	a, b := held[0], held[1]
	for i := 0; i < 4; i++ {
		b.AddHop(IntHop{SwitchID: 7})
	}
	for i := 0; i < 5; i++ {
		a.AddHop(IntHop{SwitchID: 9}) // the fifth outgrows a's stack
	}
	if cap(a.Hops) <= 4 {
		t.Fatalf("a stack of 4 took a fifth record in place (cap %d)", cap(a.Hops))
	}
	for _, h := range b.Hops {
		if h.SwitchID != 7 {
			t.Fatalf("an append past a carved stack wrote into its neighbour: %+v", b.Hops)
		}
	}

	for _, pkt := range held {
		p.Put(pkt)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Put of a carved frame did not panic")
		}
	}()
	p.Put(b)
}
