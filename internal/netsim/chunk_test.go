package netsim

import (
	"testing"

	"repro/internal/chunk"
)

// TestTakeKeepsPointersAndBounds: carved values stay where they are while
// later takes open new chunks, a carved slice cannot append into its
// neighbour, and each element type has chunks of its own.
func TestTakeKeepsPointersAndBounds(t *testing.T) {
	n := MustNew(DefaultConfig(), fixedScheme(gbps100))
	first := Take[int64](n)
	*first = 42
	for i := 0; i < 3*chunk.Max; i++ {
		*Take[int64](n) = -1
	}
	if *first != 42 {
		t.Fatalf("a value carved first reads %d after later chunks, want 42", *first)
	}

	a, b := TakeSlice[int32](n, 3), TakeSlice[int32](n, 3)
	if len(a) != 3 || cap(a) != 3 {
		t.Fatalf("TakeSlice(3): len %d cap %d, want 3 and 3", len(a), cap(a))
	}
	_ = append(a, 7)
	if b[0] != 0 {
		t.Fatal("an append past a carved slice's capacity wrote into the next one")
	}
	if TakeSlice[int32](n, 0) != nil {
		t.Fatal("TakeSlice(0) must not touch the chunks")
	}
	if len(n.chunks) != 2 {
		t.Fatalf("%d chunk stores for two element types", len(n.chunks))
	}

	// A request larger than a chunk gets a chunk of its own size.
	if big := TakeSlice[byte](n, chunk.Max+1); len(big) != chunk.Max+1 {
		t.Fatalf("TakeSlice(chunk.Max+1) has len %d", len(big))
	}
}

// TestFlowsComeFromChunks: AddFlow takes its Flow from the network's chunks,
// and every added flow keeps its identity.
func TestFlowsComeFromChunks(t *testing.T) {
	n, h0, h1 := directPair(t, DefaultConfig(), fixedScheme(gbps100), gbps100)
	const flows = chunk.Min + 1 // spills into a second chunk
	for i := 0; i < flows; i++ {
		n.AddFlow(uint64(i+1), h0, h1, 1000, 0)
	}
	allocs := testing.AllocsPerRun(10, func() {
		n.AddFlow(uint64(len(n.flows)+1), h0, h1, 1000, 0)
	})
	for i, f := range n.Flows() {
		if f.ID != uint64(i+1) || f.qp != int32(i) {
			t.Fatalf("flow %d reads id %d qp %d", i, f.ID, f.qp)
		}
	}
	// fixedCC is one allocation; the Flow must add none (the id set, flow
	// table and event storage grow too rarely to show in the average).
	if allocs > 1 {
		t.Errorf("AddFlow costs %v allocations per flow", allocs)
	}
}
