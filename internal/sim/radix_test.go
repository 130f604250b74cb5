package sim

import (
	"math/bits"
	"slices"
	"testing"
)

// The tests in this file check the radix on its own against the simplest
// model there is: a slice kept sorted by the full (at, schedAt, key, seq)
// order. The engine-level property — the same pop sequence whatever holds an
// entry — is FuzzEngineOrder's.

// radixModel drives a radix and a sorted slice with the same operations, the
// way the engine does: every push is at or after now, with schedAt now and
// the next seq, and a pop moves now to the popped entry's time.
type radixModel struct {
	t    *testing.T
	r    radix
	want []entry // sorted by the full order, earliest first
	now  Time
	seq  uint64
}

func (m *radixModel) push(at Time, key int32) {
	m.t.Helper()
	ent := entry{at: at, schedAt: m.now, seq: m.seq, keySlot: keySlot{key: key, slot: int32(m.seq)}}
	m.seq++
	m.r.push(ent)
	i, _ := slices.BinarySearchFunc(m.want, ent, func(a, b entry) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
	m.want = slices.Insert(m.want, i, ent)
	m.check()
}

func (m *radixModel) pop() {
	m.t.Helper()
	if len(m.want) == 0 {
		return
	}
	if got := *m.r.front(); got != m.want[0] {
		m.t.Fatalf("radix front %+v, want %+v", got, m.want[0])
	}
	m.now = m.want[0].at
	m.want = m.want[1:]
	m.r.pop()
	m.check()
}

// check compares the radix's front with the model's and verifies every
// invariant radix documents.
func (m *radixModel) check() {
	m.t.Helper()
	r := &m.r
	if len(m.want) == 0 {
		if radixLen(r) != 0 || r.occupied != 0 || r.frontAt() != emptyFront {
			m.t.Fatalf("model empty, radix holds %d entries (occupied %b, frontAt %v)", radixLen(r), r.occupied, r.frontAt())
		}
		return
	}
	if radixLen(r) != len(m.want) {
		m.t.Fatalf("radix holds %d entries, model %d", radixLen(r), len(m.want))
	}
	if len(r.b[0]) == 0 {
		m.t.Fatal("bucket 0 empty while the radix holds entries")
	}
	if got := *r.front(); got != m.want[0] || r.frontAt() != got.at {
		m.t.Fatalf("radix front %+v (frontAt %v), want %+v", got, r.frontAt(), m.want[0])
	}
	for i, ent := range r.b[0] {
		if ent.at > r.last {
			m.t.Fatalf("bucket 0 holds time %v after the base %v", ent.at, r.last)
		}
		if i > 0 && !ent.before(r.b[0][i-1]) {
			m.t.Fatalf("bucket 0 out of order at %d: %+v after %+v", i, ent, r.b[0][i-1])
		}
	}
	for k := 1; k < radixBuckets; k++ {
		if (len(r.b[k]) > 0) != (r.occupied&(1<<k) != 0) {
			m.t.Fatalf("bucket %d holds %d entries, occupied bit %v", k, len(r.b[k]), r.occupied&(1<<k) != 0)
		}
		for _, ent := range r.b[k] {
			if got := bits.Len64(uint64(ent.at ^ r.last)); got != k {
				m.t.Fatalf("bucket %d holds time %v, which first differs from the base %v at bit %d", k, ent.at, r.last, got-1)
			}
		}
	}
	if r.occupied&1 != 0 {
		m.t.Fatal("occupied marks bucket 0")
	}
}

// radixDelay draws how far ahead of now a push fires: often 0 (ties with
// now), often a few picoseconds or one of a few frame times (ties with each
// other), sometimes anywhere up to about a second, so every bucket fills.
func radixDelay(rng *RNG) Time {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return Time(rng.Intn(8))
	case 2, 3:
		return [...]Time{5_120, 6_720, 121_440, 1_500_000}[rng.Intn(4)]
	case 4:
		return Time(rng.Int63n(1 << 20))
	}
	return Time(rng.Int63n(1 << 40))
}

// radixKey draws an explicit key or none, so equal times meet keyed and
// unkeyed entries in both orders.
func radixKey(rng *RNG) int32 {
	if rng.Intn(3) == 0 {
		return KeyNone
	}
	return int32(rng.Intn(4))
}

// TestRadixAgainstSortedSlice runs random scripts of pushes and pops, and of
// refills forced by popping bucket 0 dry followed by pushes between now and
// the base the refill moved ahead of it, and requires the radix's front and
// invariants to match the sorted slice after every operation.
func TestRadixAgainstSortedSlice(t *testing.T) {
	belowBase := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		m := &radixModel{t: t, now: Time(rng.Int63n(1 << 50))}
		for op := 0; op < 400; op++ {
			switch rng.Intn(5) {
			case 0, 1:
				m.push(m.now+radixDelay(rng), radixKey(rng))
			case 2:
				m.pop()
			case 3:
				// Pop bucket 0 dry: the last pop refills it from a higher
				// bucket, which moves the base past now whenever one is
				// occupied.
				for n := len(m.r.b[0]); n > 0; n-- {
					m.pop()
				}
				fallthrough
			case 4:
				// Pushes between now and the base, ties with either end
				// included: sorted inserts into bucket 0.
				if len(m.want) == 0 || m.r.last <= m.now {
					continue
				}
				for n := 1 + rng.Intn(4); n > 0; n-- {
					at := m.now + Time(rng.Int63n(int64(m.r.last-m.now)+1))
					if rng.Intn(4) == 0 {
						at = m.r.last
					}
					m.push(at, radixKey(rng))
					belowBase++
				}
			}
		}
		for len(m.want) > 0 {
			m.pop()
		}
	}
	if belowBase < 1000 {
		t.Fatalf("only %d pushes between now and a base ahead of it; the scripts miss the case", belowBase)
	}
}

// Equal times from several scheduling instants, keyed and unkeyed, reach
// bucket 0 both through a refill and through inserts after it; they must come
// out in (schedAt, key, seq) order.
func TestRadixEqualTimesRefillAndInsert(t *testing.T) {
	m := &radixModel{t: t}
	const at = 1 << 30
	m.push(5, KeyNone) // the base: the rest goes to higher buckets
	for _, key := range []int32{KeyNone, 3, 1, KeyNone, 0, 2} {
		m.push(at, key)
	}
	m.pop() // now 5: bucket 0 refills with every entry at at
	if m.r.last != at || len(m.r.b[0]) != 6 {
		t.Fatalf("after the refill the base is %v with %d entries in bucket 0, want %v and 6", m.r.last, len(m.r.b[0]), Time(at))
	}
	for _, key := range []int32{2, KeyNone, 0} {
		m.push(at, key) // ties with the base, from a later instant
	}
	m.push(at-1, 1) // between now and the base
	for len(m.want) > 0 {
		m.pop()
	}
}
