package netsim

import (
	"repro/internal/chunk"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Storage is what a network's shards grow during a run — per shard, the
// engine's store, the packet pool's frame and INT-stack chunks, and the
// chunks port rings and host send lists grow into — kept for the next
// network built on it (DESIGN.md "Run storage has an owner"). One network
// holds it at a time, from NewOn to Release (its engine stores refuse a
// second), and its owner (a sweep worker's run arena, a benchmark loop)
// keeps it in between. The zero value is ready to use.
type Storage struct {
	shards []*shardStore // by shard index, grown to the widest partition built on it
}

// shardStore is one shard's part of a Storage.
type shardStore struct {
	eng   *sim.Store
	pool  *packet.Pool
	rings chunk.Of[*packet.Packet] // paged like the pool: the run's peak queueing
	sends chunk.Of[*Flow]
}

// shard returns shard i's storage, made on first use.
func (st *Storage) shard(i int) *shardStore {
	for len(st.shards) <= i {
		ss := &shardStore{eng: sim.NewStore(), pool: packet.NewPool(), rings: chunk.Paged[*packet.Packet]()}
		ss.pool.Keep()
		ss.rings.Keep, ss.sends.Keep = true, true
		st.shards = append(st.shards, ss)
	}
	return st.shards[i]
}

// Bytes is the memory the storage keeps between runs.
func (st *Storage) Bytes() int {
	n := 0
	for _, ss := range st.shards {
		n += ss.eng.Bytes() + ss.pool.Bytes() + ss.rings.Bytes() + ss.sends.Bytes()
	}
	return n
}

// Release ends the run and gives its storage back for the next network built
// on it: every shard's engine hands back its store (sim.Engine.Release), and
// its packet pool, ring chunks and send-list chunks are rewound. Read
// TotalEngineStats, TotalPoolStats and whatever else the run produced first;
// afterwards nothing can be scheduled, pending events are gone, every frame
// is dead and the pool counters read zero. Calling it again does nothing,
// and a network that is never released is simply collected with its storage.
func (n *Network) Release() {
	if n.store == nil {
		return
	}
	for _, sh := range n.sharding.shards {
		sh.eng.Release()
		sh.mem.pool.Rewind()
		sh.mem.rings.Rewind()
		sh.mem.sends.Rewind()
	}
	n.store = nil
}
