package benchpair

import (
	"math"
	"testing"
)

var sink uint32

// spin is a fixed CPU loop of about 20 us a round.
func spin(rounds int) {
	x := sink
	for i := 0; i < rounds*16_000; i++ {
		x = x*1664525 + 1013904223
	}
	sink = x
}

// pairOf runs Ratio with rounds of spin over one round and returns the
// result, the pairs its last run made and how many of them ran num first.
// Both sides run the same bookkeeping, so under -race, where each counter
// access costs tens of ns, neither side carries more of it.
func pairOf(rounds int) (res testing.BenchmarkResult, pairs, numFirst int) {
	var calls int
	var first [2]int // first[s]: the pairs side s ran first in
	side := func(s, rounds int) func() {
		return func() {
			if calls%2 == 0 {
				first[s]++
			}
			calls++
			spin(rounds)
		}
	}
	res = testing.Benchmark(func(b *testing.B) {
		calls, first = 0, [2]int{}
		Ratio(b, side(0, rounds), side(1, 1))
	})
	return res, calls / 2, first[0]
}

// TestSameWorkReadsOne is the A/A check: one loop on both sides reads 1 to
// within half a percent, so the pairing has no bias of its own; each side
// goes first in half of the pairs, and nothing is allocated per pair.
func TestSameWorkReadsOne(t *testing.T) {
	res, pairs, numFirst := pairOf(1)
	r := res.Extra["ratio"]
	t.Logf("%d pairs, ratio %.4f", pairs, r)
	if pairs != res.N || pairs < 200 || numFirst != (pairs+1)/2 {
		t.Fatalf("b.N %d, %d pairs, num first in %d: want b.N >= 200 pairs, half num first", res.N, pairs, numFirst)
	}
	if math.Abs(r-1) > 0.005 || res.AllocsPerOp() != 0 {
		t.Errorf("A/A ratio %.4f, %d allocs/op: want 1 +- 0.005, 0", r, res.AllocsPerOp())
	}
}

// TestRatioIsNumOverDen: three rounds over one read about 3, not 1/3.
func TestRatioIsNumOverDen(t *testing.T) {
	if res, _, _ := pairOf(3); math.Abs(res.Extra["ratio"]-3) > 0.3 {
		t.Fatalf("ratio %.3f for 3 rounds over 1, want about 3", res.Extra["ratio"])
	}
}
