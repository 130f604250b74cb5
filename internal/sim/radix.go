package sim

import "math/bits"

// radixBuckets is one bucket per bit a firing time can differ from the base
// in, plus bucket 0. Times are never negative (the clock starts at 0 and a
// push may not precede it), so two of them differ in the low 63 bits at most.
const radixBuckets = 64

// radix is the queue's overflow: a monotone radix heap over firing times
// (Ahuja, Mehlhorn, Orlin and Tarjan, J. ACM 1990) holding the entries that
// extend no lane. It keeps these invariants:
//
//   - b[0] holds every entry at or below last, sorted by the full
//     (at, schedAt, key, seq) order, earliest at the end; it is non-empty
//     whenever the radix holds anything, so its end is the radix minimum.
//   - b[k], k >= 1, holds the entries whose time first differs from last at
//     bit k-1. Every such time is after last, and after every time in a
//     lower bucket, so the lowest non-empty bucket holds the next minimum.
//   - emptying b[0] refills it from that bucket: its earliest time becomes
//     last and each of its entries moves to a strictly lower bucket.
//
// A refill runs when b[0] empties, not when the next pop wants it, because
// the engine's time index must know the radix front at all times; so last
// can run ahead of the clock, and a later push between now and last is a
// sorted insert into b[0] — the one case a textbook radix heap never sees.
// Every entry moves down at most once per bucket, so a push and its pop cost
// O(log of how far ahead it fires) moves, and no compare of the full order
// outside b[0].
type radix struct {
	last     Time
	occupied uint64 // bit k set iff b[k] is non-empty, k >= 1
	b        [radixBuckets][]entry
}

// front is the radix's earliest entry; the radix must not be empty.
func (r *radix) front() *entry { return &r.b[0][len(r.b[0])-1] }

// frontAt is the firing time of the radix's earliest entry, or emptyFront.
func (r *radix) frontAt() Time {
	if n := len(r.b[0]); n > 0 {
		return r.b[0][n-1].at
	}
	return emptyFront
}

func (r *radix) push(ent entry) {
	if len(r.b[0]) == 0 {
		r.last = ent.at // an empty radix: the new entry is its minimum
	}
	if ent.at <= r.last {
		r.insertSorted(ent)
		return
	}
	k := bits.Len64(uint64(ent.at ^ r.last))
	r.b[k] = append(r.b[k], ent)
	r.occupied |= 1 << k
}

// insertSorted files ent in b[0], keeping it sorted earliest-last.
func (r *radix) insertSorted(ent entry) {
	b := append(r.b[0], ent)
	i := len(b) - 1
	for ; i > 0 && b[i-1].before(ent); i-- {
		b[i] = b[i-1]
	}
	b[i] = ent
	r.b[0] = b
}

// pop removes the radix's earliest entry, refilling b[0] when that empties it.
func (r *radix) pop() {
	r.b[0] = r.b[0][:len(r.b[0])-1]
	if len(r.b[0]) > 0 || r.occupied == 0 {
		return
	}
	k := bits.TrailingZeros64(r.occupied)
	from := r.b[k]
	last := from[0].at
	for _, ent := range from[1:] {
		last = min(last, ent.at)
	}
	r.last = last
	for _, ent := range from {
		if ent.at == last {
			r.insertSorted(ent)
			continue
		}
		j := bits.Len64(uint64(ent.at ^ last))
		r.b[j] = append(r.b[j], ent)
		r.occupied |= 1 << j
	}
	r.b[k] = from[:0]
	r.occupied &^= 1 << k
}
