package scenario

import (
	"sync"
	"unsafe"

	"repro/internal/chunk"
	"repro/internal/fluid"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// Arena is the storage a run grows and gives back once its result has been
// read (DESIGN.md "Run storage has an owner"): the packet network's
// per-shard engine stores, packet pools and ring and send-list chunks
// (netsim.Storage), the fluid Sim's flow and path chunks and solver arrays
// (fluid.Storage), and the array the spec's flow set is written into. Code
// that runs points one after another holds one Arena and passes it to every
// run (WithArena): a harness.Pool worker for its life, a benchmark or test
// loop for its own. One run uses it at a time. Nothing a Result keeps points
// into it. The zero value is ready to use.
type Arena struct {
	net   netsim.Storage
	fluid fluid.Storage
	flows []workload.FlowSpec
}

// MaxArenaBytes is the most an Arena keeps from one run to the next. A run
// that leaves more behind gives all of it up, so that an arena held between
// points does not hold the largest one's peak. The repository benchmark's
// packet points leave 15-18 MB (the k=4 fct-websearch and fct-hadoop points,
// most of it the engine's slot slab), its fluid points under 7 MB; the k=32
// packet permutation leaves 17 MB at a duration of 1 us, 135 MB at 10 us and
// 347 MB at 100 us.
const MaxArenaBytes = 64 << 20

// Bytes is the memory the arena keeps between runs.
func (a *Arena) Bytes() int {
	return a.net.Bytes() + a.fluid.Bytes() + cap(a.flows)*int(unsafe.Sizeof(workload.FlowSpec{}))
}

// RunOption is an option of Norm.Run.
type RunOption struct{ arena *Arena }

// WithArena runs on a instead of an arena from the lone-run pool (nil keeps
// the pool).
func WithArena(a *Arena) RunOption { return RunOption{arena: a} }

// loneArenas serves the runs that bring no arena: a lone Run, or a loop that
// calls Run once per point and holds nothing between them. A collection may
// empty it; such a run then grows its storage afresh.
var loneArenas = sync.Pool{New: func() any { return new(Arena) }}

// onArena runs the scenario on a. A run that fails or panics leaves a's
// storage held by a network or Sim that never finished, and one that grew a
// past MaxArenaBytes leaves too much: either way a starts over empty.
func (n Norm) onArena(a *Arena) (*Result, error) {
	ok := false
	defer func() {
		if !ok || a.Bytes() > MaxArenaBytes {
			*a = Arena{}
		}
	}()
	res, err := n.run(a)
	a.flows = chunk.Recycle(a.flows) // the network or Sim has copied them
	ok = err == nil
	return res, err
}
