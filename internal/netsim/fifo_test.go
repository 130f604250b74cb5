package netsim

import (
	"testing"

	"repro/internal/chunk"
	"repro/internal/packet"
)

// TestFifoOrderAndReclaim drives the port queue through burst, drain and
// steady-depth phases: frames leave in arrival order, a slot outside the
// queue never keeps its frame (the frame has gone back to the pool), a ring
// the queue has grown out of holds no frame either (its chunk outlives it),
// and a queue held at a steady depth reuses its ring instead of growing with
// the frame count.
func TestFifoOrderAndReclaim(t *testing.T) {
	var (
		f     fifo
		rings chunk.Of[*packet.Packet]
		grown int
	)
	next, want := int64(0), int64(0)
	push := func() {
		t.Helper()
		old := f.buf
		f.room(&rings)
		if len(f.buf) != len(old) {
			grown++
			for i, pkt := range old {
				if pkt != nil {
					t.Fatalf("the %d-slot ring the queue grew out of still holds seq %d in slot %d", len(old), pkt.Seq, i)
				}
			}
		}
		f.push(&packet.Packet{Seq: next})
		next++
	}
	pop := func() {
		t.Helper()
		if pkt := f.pop(); pkt.Seq != want {
			t.Fatalf("popped seq %d, want %d", pkt.Seq, want)
		}
		want++
		if got := f.len(); got != int(next-want) {
			t.Fatalf("len %d, want %d", got, next-want)
		}
		held := 0
		for _, pkt := range f.buf {
			if pkt != nil {
				held++
			}
		}
		if held != f.len() {
			t.Fatalf("ring holds %d frames for a queue of %d", held, f.len())
		}
	}

	for i := 0; i < 100; i++ { // burst, then drain to empty
		push()
	}
	for f.len() > 0 {
		pop()
	}
	for i := 0; i < 37; i++ { // steady depth 37 while many frames pass
		push()
	}
	for i := 0; i < 100_000; i++ {
		push()
		pop()
	}
	if len(f.buf) != 128 || grown != 6 {
		t.Fatalf("ring is %d slots after %d growths, a burst of 100 and a steady depth of 37, want 128 after 6", len(f.buf), grown)
	}
}
