package chunk

import (
	"slices"
	"testing"
)

// TestTakeSizes: chunks double from Min to Max, or to Limit, and no
// further, and a request larger than a chunk gets a chunk of its own size.
// (That carved values stay put and cannot append into a neighbour is
// netsim's TestTakeKeepsPointersAndBounds, through Take and TakeSlice.)
func TestTakeSizes(t *testing.T) {
	sizes := func(c *Of[int64], chunks int) []int {
		var got []int
		for range chunks {
			for len(c.free) > 0 {
				c.Take(1)
			}
			c.Take(1)
			got = append(got, c.size)
		}
		return got
	}
	var c Of[int64]
	if got, want := sizes(&c, 9), []int{32, 64, 128, 256, 512, 1024, 2048, Max, Max}; !slices.Equal(got, want) {
		t.Errorf("chunk sizes %v, want %v", got, want)
	}
	l := Of[int64]{Limit: 40}
	if got, want := sizes(&l, 3), []int{Min, 40, 40}; !slices.Equal(got, want) {
		t.Errorf("chunk sizes under Limit 40: %v, want %v", got, want)
	}
	if big := l.Take(Max + 1); len(big) != Max+1 || cap(big) != Max+1 {
		t.Fatalf("Take(Max+1): len %d cap %d", len(big), cap(big))
	}
}

// TestTakeAllocatesPerChunk: carving n values costs one allocation per
// chunk, not one per value.
func TestTakeAllocatesPerChunk(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		var c Of[[16]byte]
		for i := 0; i < 10_000; i++ {
			c.Take(1)
		}
	})
	// 32+64+...+4096 = 8,160 in eight chunks, then one more of 4,096.
	if allocs != 9 {
		t.Fatalf("10,000 takes cost %v allocations, want 9 chunks", allocs)
	}
}
