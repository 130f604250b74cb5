// Package chunk is the storage rule for state a simulation creates many of
// one at a time — flows, sender CC objects and INT histories at admission,
// frames and INT stacks in a shard's packet pool, and the port rings and
// host send lists a shard grows (DESIGN.md "Per-flow and per-link state").
// Values are carved from chunks: one slice of a single element type. The
// first chunk holds Min elements and each next one twice the last, up to
// Max; a chunk is never regrown, so every pointer into one stays valid, and
// a small run stays small.
//
// A carved value keeps its whole chunk reachable: the chunk is freed only
// once nothing points into any part of it. A store that is run storage
// (DESIGN.md "Run storage has an owner") keeps its chunks instead, and
// Rewind hands them out again to the next run.
package chunk

import "unsafe"

// The chunk sizes, in elements.
const (
	Min = 32
	Max = 4096
)

// PageBytes bounds the chunks of a Paged store: 4 KB less the 8-byte header
// the Go allocator puts before an object of that size that holds pointers,
// so a full chunk fills one 4 KB size class.
const PageBytes = 4096 - 8

// Paged returns a store whose chunks stop doubling at PageBytes, for state
// whose count is a run's peak (frames in flight, queued frames), where the
// unused tail of a larger chunk would cost more bytes than the objects it
// replaces.
func Paged[T any]() Of[T] {
	var z T
	return Of[T]{Limit: PageBytes / int(unsafe.Sizeof(z))}
}

// Of is the storage one element type is carved from. The zero value is
// ready to use. It takes no locks: one owner carves from it.
type Of[T any] struct {
	// Limit, when positive, caps the chunk size below Max. A store whose
	// chunks must not waste more than a small unused tail sets it (Paged).
	Limit int
	// Keep makes the store remember every chunk it makes, so that Rewind
	// can hand them out again; run storage sets it.
	Keep bool

	free []T   // the unused tail of the current chunk
	size int   // the last new chunk's length
	kept [][]T // with Keep, every chunk made, in the order made
	next int   // kept[next:] have not been handed out since the last Rewind
}

// Take returns k zeroed Ts with capacity k, so an append past it
// reallocates instead of running into a neighbour. A request larger than the
// next chunk gets a chunk of its own size; the tail a request does not fit
// in is left unused.
func (c *Of[T]) Take(k int) []T {
	if k > len(c.free) {
		c.refill(k)
	}
	s := c.free[:k:k]
	c.free = c.free[k:]
	return s
}

// refill makes the next chunk current: the next kept chunk that holds k,
// zeroed, or else a new one.
func (c *Of[T]) refill(k int) {
	for c.next < len(c.kept) {
		ch := c.kept[c.next]
		c.next++
		if len(ch) >= k {
			clear(ch)
			c.free = ch
			return
		}
	}
	hi := Max
	if c.Limit > 0 {
		hi = min(c.Limit, Max)
	}
	c.size = min(max(2*c.size, Min), hi)
	c.free = make([]T, max(c.size, k))
	if c.Keep {
		c.kept = append(c.kept, c.free)
		c.next = len(c.kept)
	}
}

// Rewind takes back every chunk the store has handed out: the Takes after
// it carve the kept chunks again, zeroed, in the order they were made,
// before any new chunk is made. Every value carved before it must be dead.
// Without Keep there is nothing to take back, and Rewind only drops the
// current chunk's tail.
func (c *Of[T]) Rewind() {
	if Poison != nil {
		for _, ch := range c.kept[:c.next] {
			Poison(ch)
		}
	}
	c.free, c.next = nil, 0
}

// Bytes is the memory the store keeps for Rewind.
func (c *Of[T]) Bytes() int {
	n := 0
	for _, ch := range c.kept {
		n += len(ch)
	}
	var z T
	return n * int(unsafe.Sizeof(z))
}

// Resize returns a slice of n zeroed Ts on s's array when it holds n, and
// on a new one otherwise: a run's array of a size known at its start, kept
// for the next run. Recycle gives it back.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Recycle takes back a run's array for the next run: s[:0], which Resize or
// an append fills again. Every value in it must be dead.
func Recycle[T any](s []T) []T {
	if Poison != nil {
		Poison(s[:cap(s)])
	}
	return s[:0]
}

// Poison, when set, is called with every array and chunk of run storage
// taken back (Rewind, Recycle) before it is handed out again. Tests set it
// (package chunktest) to fill that storage with a pattern no run writes, so
// that a result still pointing into it reads the pattern. Nil otherwise.
var Poison func(s any)
