// Package chunk is the storage rule for state a simulation creates many of
// one at a time — flows, sender CC objects and INT histories at admission,
// frames and INT stacks in a shard's packet pool (DESIGN.md "Per-flow and
// per-link state"). Values are carved from chunks: one slice of a single
// element type. The first chunk holds Min elements and each next one twice
// the last, up to Max; a chunk is never regrown, so every pointer into one
// stays valid, and a small run stays small.
//
// A carved value keeps its whole chunk reachable: the chunk is freed only
// once nothing points into any part of it.
package chunk

// The chunk sizes, in elements.
const (
	Min = 32
	Max = 4096
)

// Of is the storage one element type is carved from. The zero value is
// ready to use. It takes no locks: one owner carves from it.
type Of[T any] struct {
	// Limit, when positive, caps the chunk size below Max. A store whose
	// chunks must not waste more than a small unused tail sets it: a packet
	// pool stops doubling at 4 KB.
	Limit int

	free []T // the unused tail of the current chunk
	size int // the current chunk's length
}

// Take returns k zeroed Ts with capacity k, so an append past it
// reallocates instead of running into a neighbour. A request larger than the
// next chunk gets a chunk of its own size; the tail a request does not fit
// in is left unused.
func (c *Of[T]) Take(k int) []T {
	if k > len(c.free) {
		hi := Max
		if c.Limit > 0 {
			hi = min(c.Limit, Max)
		}
		c.size = min(max(2*c.size, Min), hi)
		c.free = make([]T, max(c.size, k))
	}
	s := c.free[:k:k]
	c.free = c.free[k:]
	return s
}
