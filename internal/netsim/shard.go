package netsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// This file is the executor, the only one: the fabric is a list of shards
// (logical processes), each owning a contiguous set of nodes together with a
// sim.Engine and a packet.Pool. New makes one shard, on Network.Eng and
// Network.Pool; ConfigureSharding re-partitions into k, of which shard 0 keeps
// those two. Execution proceeds in windows bounded by the minimum cross-shard
// link latency; within a window every shard drains its own event queue
// independently, and frames whose link crosses a shard boundary are exchanged
// at the barrier as timestamped messages. One shard has no such link, hence no
// lookahead, calendar or helper: its single window is the whole RunUntil call.
//
// The design goal is bit-identical results for any shard and worker count,
// "the serial order" below being the order one shard fires everything in.
// Three invariants deliver that:
//
//  1. Same-shard events keep the serial engine's order: they are scheduled
//     on the shard engine by the same code in the same relative order as the
//     serial run, so the per-shard event sequence is exactly the serial
//     sequence restricted to that shard.
//  2. Every event is ordered by the serial engine's comparator
//     (at, schedAt, key, seq), and a cross-shard delivery carries the prefix
//     (at, schedAt, key): arrival time, the transmit-completion instant that
//     scheduled it, and the source port's fabric-wide UID — the same key the
//     serial engine uses for that frame's delivery event (ports schedule
//     deliveries through AfterArgKeyed). Frames colliding on the full prefix
//     cannot exist (a port completes at most one transmit per instant), so
//     merging the remote calendar with the local queue by the prefix
//     reproduces the serial interleaving exactly. The seq tiebreak never
//     crosses the merge: it only orders same-shard events, where it equals
//     the serial restriction (invariant 1).
//  3. The window end never exceeds min-event-time + lookahead, so every
//     message generated inside a window is timestamped at or after the next
//     barrier — no shard can receive a message in its past (the classic
//     conservative-PDES soundness argument; the lookahead is the smallest
//     cross-shard propagation delay, discovered while wiring links).
//
// Observers that need a consistent global view (experiment tickers, the
// telemetry probe) register through Network.GlobalTicker: on one shard it is
// exactly Engine.Ticker; on several the coordinator caps windows at each tick
// position and invokes the callback at the barrier, when every shard is
// parked at the tick's serial position.

// delivery is one cross-shard frame in flight: a packet that finished
// serializing on a port whose peer lives in another shard.
type delivery struct {
	at      sim.Time // arrival: transmit completion + propagation delay
	schedAt sim.Time // transmit completion (serial scheduling instant)
	srcUID  int32    // source port's fabric-wide UID (the event key)
	dst     *Port
	pkt     *packet.Packet
}

// shardKey is the cross-engine total-order prefix; see invariant 2 above.
type shardKey struct {
	at      sim.Time
	schedAt sim.Time
	key     int32
}

func (a shardKey) less(b shardKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.key < b.key
}

// windowEnd is an exclusive window bound covering every event that fires
// strictly before t.
func windowEnd(t sim.Time) shardKey { return shardKey{at: t, schedAt: -1} }

// calendar is a binary min-heap of pending remote deliveries, ordered by
// their shardKey. The key is unique across deliveries: a port completes at
// most one transmit per instant.
type calendar []delivery

func (c *calendar) push(d delivery) {
	q := append(*c, d)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].key().less(q[parent].key()) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*c = q
}

func (c *calendar) pop() delivery {
	q := *c
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = delivery{}
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && q[r].key().less(q[l].key()) {
			child = r
		}
		if !q[child].key().less(q[i].key()) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	*c = q
	return top
}

// Shard is one logical process: a node partition with its own engine, pool
// and FCT collector, whose records the coordinator folds into Network.FCT at
// each run boundary.
type Shard struct {
	index int
	eng   *sim.Engine
	pool  *packet.Pool

	inbound   int                  // flows added whose receiver is in this shard
	completed int                  // flows that finished at a receiver in this shard
	fct       metrics.FCTCollector // their records since the last run boundary
	merged    int                  // mergeResults' cursor into fct.Records

	// mem is the shard's part of the network's Storage: its engine's store,
	// its pool, and the chunks its port rings and host send lists grow into
	// (fifo.grow, Host.startFlow). Only the shard's own events push to them,
	// so each has one owner, as the pool does.
	mem *shardStore

	cal calendar   // inbound remote deliveries, merged with the engine
	out []delivery // outbound to any shard, drained at barriers

	deliveries uint64 // remote frames delivered into this shard
}

// Pool returns the shard's packet pool.
func (sh *Shard) Pool() *packet.Pool { return sh.pool }

// Index returns the shard's position in the partition.
func (sh *Shard) Index() int { return sh.index }

// headAt returns the earliest pending time across the shard's engine and
// remote calendar.
func (sh *Shard) headAt() (sim.Time, bool) {
	ea, _, _, eok := sh.eng.HeadKey()
	if len(sh.cal) > 0 {
		if !eok || sh.cal[0].at < ea {
			return sh.cal[0].at, true
		}
	}
	return ea, eok
}

// sendRemote queues a frame that just finished serializing on p for delivery
// into the peer's shard. Called from shard execution context (the outbox's
// single writer).
func (sh *Shard) sendRemote(p *Port, pkt *packet.Packet) {
	now := p.eng.Now()
	sh.out = append(sh.out, delivery{
		at:      now + p.delay,
		schedAt: now,
		srcUID:  p.uid,
		dst:     p.peer,
		pkt:     pkt,
	})
}

// runWindow drains every event and remote delivery whose key is strictly
// below end, merging the engine queue with the calendar in serial order.
func (sh *Shard) runWindow(end shardKey) {
	for {
		// The engine runs up to the window end or the next remote delivery,
		// whichever is earlier. Firing cannot add to the calendar inside a
		// window (outboxes are routed at the barrier), so the bound holds
		// until the next pop. Ties across the merge cannot exist (invariant 2).
		bound, remote := end, false
		if len(sh.cal) > 0 && sh.cal[0].key().less(end) {
			bound, remote = sh.cal[0].key(), true
		}
		if bound.schedAt < 0 {
			// A windowEnd with no delivery ahead of it: "strictly below" is
			// "due by the picosecond before", which needs no compare per event.
			sh.eng.RunUntil(bound.at - 1)
			return
		}
		for fired := true; fired; {
			fired, _ = sh.eng.StepBefore(bound.at, bound.schedAt, bound.key)
		}
		if !remote {
			return
		}
		d := sh.cal.pop()
		if sh.eng.Now() < d.at {
			sh.eng.AdvanceTo(d.at)
		}
		sh.deliveries++
		d.dst.owner.Receive(d.pkt, d.dst.index)
	}
}

func (d delivery) key() shardKey {
	return shardKey{at: d.at, schedAt: d.schedAt, key: d.srcUID}
}

// globalTicker is one Network.GlobalTicker registration on several shards.
type globalTicker struct {
	period  sim.Time
	fn      func()
	next    sim.Time
	idx     int
	stopped bool
}

// ShardStats summarizes the parallel executor's behavior for one run.
type ShardStats struct {
	// Shards is the partition size (0 for one shard: nothing to report).
	Shards int
	// Workers is the configured worker count, Width how many of them run
	// here: min(Workers, Shards, GOMAXPROCS).
	Workers, Width int
	// Lookahead is the window bound: the minimum cross-shard link delay.
	Lookahead sim.Time
	// Windows counts barrier-synchronized rounds executed.
	Windows uint64
	// Messages counts cross-shard frame deliveries exchanged at barriers.
	Messages uint64
	// Ticks counts global-ticker callbacks fired by the coordinator.
	Ticks uint64
	// BusyNs and WaitNs are host time summed over the Width workers: inside
	// windows, and at the barrier (for a helper that includes the routing
	// between windows). BusyNs / (Width x wall) is the parallel efficiency.
	BusyNs, WaitNs int64
}

// Sharding is the coordinator: it owns the partition, drives windows, routes
// messages at barriers, and fires global tickers at their serial positions.
type Sharding struct {
	net       *Network
	shards    []*Shard
	build     *Shard // partition target for nodes created now
	workers   int
	lookahead sim.Time

	tickers     []*globalTicker
	extraStarts atomic.Uint64 // cross-shard flow starts split into two events
	windows     uint64
	messages    uint64
	ticks       uint64

	// The window barrier: an epoch bump publishes end and quit to the helpers.
	end            shardKey
	quit           bool
	epoch          atomic.Int32 // window number: a bump releases the helpers
	cursor         atomic.Int32 // shards of this window claimed so far
	done           atomic.Int32 // helpers that have finished this window
	failed         atomic.Pointer[WindowPanic]
	busyNs, waitNs atomic.Int64
}

// WindowPanic is what any Network.RunUntil re-raises on its caller's goroutine
// when a shard — the only one included — panicked inside a window: the value,
// and the stack of the goroutine that raised it, which the caller's own stack
// no longer shows.
type WindowPanic struct {
	Value any
	Stack []byte
}

func (p *WindowPanic) Error() string { return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack) }

// newSharding partitions n: shard 0 runs on the Network's own engine and pool
// (which therefore stay the fabric's clock and a live pool at every shard
// count), every further shard on its own, each on its part of n's Storage.
func newSharding(n *Network, shards, workers int) *Sharding {
	g := &Sharding{net: n, workers: workers}
	for i := 0; i < shards; i++ {
		mem := n.store.shard(i)
		sh := &Shard{index: i, eng: n.Eng, pool: n.Pool, mem: mem}
		if i > 0 {
			sh.eng, sh.pool = sim.NewEngineOn(mem.eng), mem.pool
		}
		g.shards = append(g.shards, sh)
	}
	g.build = g.shards[0]
	return g
}

// ConfigureSharding re-partitions the network, one shard since New, into
// shards executed by workers goroutines. It must be called before any node is
// created: per-node execution context (engine, pool, shard) is bound at
// creation time. Topology builders call BuildShard to select the partition
// target while creating nodes, then Connect discovers the lookahead from
// cross-shard links.
func (n *Network) ConfigureSharding(shards, workers int) {
	if len(n.Hosts) > 0 || len(n.Switches) > 0 {
		panic("netsim: ConfigureSharding must run before nodes are created")
	}
	if shards < 1 {
		panic(fmt.Sprintf("netsim: invalid shard count %d", shards))
	}
	for _, sh := range n.sharding.shards[1:] {
		sh.eng.Release() // an earlier partition's: their stores serve this one
	}
	n.sharding = newSharding(n, shards, max(workers, 1))
}

// BuildShard selects the shard that owns nodes created from now on.
func (n *Network) BuildShard(i int) { n.sharding.build = n.sharding.shards[i] }

// Sharded reports whether the network is partitioned into more than one shard.
func (n *Network) Sharded() bool { return len(n.sharding.shards) > 1 }

// Shards returns the partition (nil for an unpartitioned network).
func (n *Network) Shards() []*Shard {
	if !n.Sharded() {
		return nil
	}
	return n.sharding.shards
}

// ShardStats returns the parallel executor's counters (the zero value for an
// unpartitioned network, so its results carry no parallel_* metric).
func (n *Network) ShardStats() ShardStats {
	if !n.Sharded() {
		return ShardStats{}
	}
	g := n.sharding
	return ShardStats{
		Shards:    len(g.shards),
		Workers:   g.workers,
		Width:     g.width(),
		Lookahead: g.lookahead,
		Windows:   g.windows,
		Messages:  g.messages,
		Ticks:     g.ticks,
		BusyNs:    g.busyNs.Load(),
		WaitNs:    g.waitNs.Load(),
	}
}

// TotalEngineStats aggregates scheduler telemetry across the partition so the
// headline event count is the same at every shard count: remote deliveries
// and coordinator ticks are events one shard would have processed on its
// engine, and a cross-shard flow start is one such event split in two.
func (n *Network) TotalEngineStats() sim.EngineStats {
	g := n.sharding
	var total sim.EngineStats
	for _, sh := range g.shards {
		s := sh.eng.Stats()
		total.Processed += s.Processed + sh.deliveries
		total.Scheduled += s.Scheduled
		total.Canceled += s.Canceled
		total.SlotReuses += s.SlotReuses
		total.Slots += s.Slots
	}
	total.Processed += g.ticks - g.extraStarts.Load()
	return total
}

// TotalPoolStats aggregates packet-pool telemetry across the partition.
func (n *Network) TotalPoolStats() packet.PoolStats {
	var total packet.PoolStats
	for _, sh := range n.sharding.shards {
		s := sh.pool.Stats()
		total.Gets += s.Gets
		total.News += s.News
		total.Puts += s.Puts
	}
	return total
}

// GlobalTicker invokes fn every period with a consistent view of the whole
// fabric. One shard delegates to Engine.Ticker (an engine event per tick, which
// the bench digests' event counts pin); several fire fn at barriers where
// every shard is parked exactly at the tick's position in the serial order,
// so fn may read any cross-shard state. The first tick fires one period from
// now.
func (n *Network) GlobalTicker(period sim.Time, fn func()) (stop func()) {
	if !n.Sharded() {
		return n.Eng.Ticker(period, fn)
	}
	if period <= 0 {
		panic(fmt.Sprintf("netsim: non-positive ticker period %v", period))
	}
	g := n.sharding
	t := &globalTicker{
		period: period,
		fn:     fn,
		next:   n.Eng.Now() + period,
		idx:    len(g.tickers),
	}
	g.tickers = append(g.tickers, t)
	return func() { t.stopped = true }
}

// observeLink records a cross-shard link's propagation delay as a lookahead
// candidate; Connect calls it for every boundary-crossing link.
func (g *Sharding) observeLink(delay sim.Time) {
	if delay <= 0 {
		panic("netsim: cross-shard link needs positive propagation delay (lookahead)")
	}
	if g.lookahead == 0 || delay < g.lookahead {
		g.lookahead = delay
	}
}

// nextTick returns the live ticker that fires first, ordered by
// (next, schedAt, idx) where schedAt = next - period: a colliding ticker
// with the longer period scheduled its pending event earlier in the serial
// run and therefore fires first.
func (g *Sharding) nextTick() *globalTicker {
	var best *globalTicker
	for _, t := range g.tickers {
		if t.stopped {
			continue
		}
		if best == nil {
			best = t
			continue
		}
		bs, ts := best.next-best.period, t.next-t.period
		if t.next < best.next ||
			(t.next == best.next && (ts < bs || (ts == bs && t.idx < best.idx))) {
			best = t
		}
	}
	return best
}

// width is how many workers run windows; beyond shards or Ps one only spins.
func (g *Sharding) width() int {
	return min(g.workers, len(g.shards), runtime.GOMAXPROCS(0))
}

// await is the barrier's only wait: spin on the atomic, soon yielding the P
// between looks. Parking the waiter would cost more to wake than the ~100 us
// of window it waits for, and 98% of waits end within 300 us; past that the
// peer has lost its core to another thread, so sleep instead of competing.
func await(v *atomic.Int32, want int32) {
	for i := 0; v.Load() != want; i++ {
		if i > 2000 { // ~200 ns a yield
			time.Sleep(time.Microsecond)
		} else if i > 200 {
			runtime.Gosched()
		}
	}
}

// drain claims shards off the cursor, runs the current window on each and
// returns when it stopped. A panic is kept for the coordinator instead of
// unwinding: this worker must still reach the barrier.
func (g *Sharding) drain() (end time.Time) {
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			g.failed.CompareAndSwap(nil, &WindowPanic{Value: v, Stack: debug.Stack()})
		}
		end = time.Now()
		g.busyNs.Add(int64(end.Sub(start)))
	}()
	for j := g.cursor.Add(1); int(j) <= len(g.shards); j = g.cursor.Add(1) {
		g.shards[j-1].runWindow(g.end)
	}
	return
}

// helper is a worker besides the coordinator, alive for one runUntil call: an
// epoch bump releases it into a window or, last, out; it counts itself done.
func (g *Sharding) helper(epoch int32) {
	for edge, quit := time.Now(), false; !quit; g.done.Add(1) {
		epoch++
		await(&g.epoch, epoch)
		g.waitNs.Add(int64(time.Since(edge)))
		if quit = g.quit; !quit {
			edge = g.drain()
		}
	}
}

// runWindows executes one window [*, end) on every shard, then routes the
// outboxes into the destination calendars. A calendar pops by the unique
// (at, schedAt, srcUID) prefix, so the order deliveries are pushed in
// cannot change what fires. The barrier (every helper counted
// into done; none, and the coordinator claims every shard in order) is the
// synchronization point that transfers packet ownership between shards.
func (g *Sharding) runWindows(end shardKey, helpers int32) {
	g.end = end
	g.cursor.Store(0)
	g.done.Store(0)
	g.epoch.Add(1) // releases the helpers
	mid := g.drain()
	await(&g.done, helpers)
	g.waitNs.Add(int64(time.Since(mid)))
	if p := g.failed.Swap(nil); p != nil {
		panic(p)
	}
	g.windows++
	for _, sh := range g.shards {
		for _, d := range sh.out {
			d.dst.shard.cal.push(d)
		}
		g.messages += uint64(len(sh.out))
		sh.out = sh.out[:0]
	}
}

// runUntil is the fabric's Engine.RunUntil: it processes every event and tick
// with firing time <= limit, then aligns all clocks on limit.
func (g *Sharding) runUntil(limit sim.Time) {
	n := g.net
	if n.Trace != nil && n.Sharded() {
		panic("netsim: Network.Trace is not supported under sharded execution")
	}
	g.presize()
	// Whatever ends this call, a panic included, finds the helpers between
	// windows: tell them to quit and wait until they have.
	helpers := int32(g.width() - 1)
	for i := int32(0); i < helpers; i++ {
		go g.helper(g.epoch.Load())
	}
	defer func() {
		g.quit = true
		g.done.Store(0)
		g.epoch.Add(1)
		await(&g.done, helpers)
		g.quit = false
	}()
	endAll := windowEnd(limit + 1)
	for {
		m := sim.Time(-1)
		for _, sh := range g.shards {
			if at, ok := sh.headAt(); ok && (m < 0 || at < m) {
				m = at
			}
		}
		tk := g.nextTick()
		tickPending := tk != nil && tk.next <= limit
		if (m < 0 || m > limit) && !tickPending {
			break
		}

		end := endAll
		if m >= 0 && m <= limit && g.lookahead > 0 {
			if la := windowEnd(m + g.lookahead); la.less(end) {
				end = la
			}
		}
		fireTick := false
		if tickPending {
			// The window stops exactly at the tick's serial ordering key
			// (at, schedAt, KeyNone): keyed deliveries at the tick instant
			// still precede it, unkeyed local events at the identical
			// (at, schedAt) follow it.
			tkEnd := shardKey{at: tk.next, schedAt: tk.next - tk.period, key: sim.KeyNone}
			if !end.less(tkEnd) {
				end = tkEnd
				fireTick = true
			}
		}

		g.runWindows(end, helpers)

		if fireTick {
			at, schedAt := tk.next, tk.next-tk.period
			// Network.Eng, shard 0's engine, is the clock callbacks read.
			if n.Eng.Now() < at {
				n.Eng.AdvanceTo(at)
			}
			for _, t := range g.tickers {
				if t.stopped || t.next != at || t.next-t.period != schedAt {
					continue
				}
				g.ticks++
				t.fn()
				if !t.stopped {
					t.next = at + t.period
				}
			}
		}
	}
	for _, sh := range g.shards {
		if sh.eng.Now() < limit {
			sh.eng.AdvanceTo(limit)
		}
	}
	g.mergeResults()
}

// presize gives each shard's completion records, and Network.FCT, room for
// every flow added so far that has not completed, so that recording a
// completion never grows them (as fluid Sim.Run sizes its collector). It
// allocates only in the first RunUntil after an AddFlow.
func (g *Sharding) presize() {
	n := g.net
	for _, sh := range g.shards {
		sh.fct.Records = slices.Grow(sh.fct.Records, sh.inbound-sh.completed)
	}
	n.FCT.Records = slices.Grow(n.FCT.Records, len(n.flows)-n.FCT.N())
}

// mergeResults brings the Network-level aggregates up to date at a run
// boundary. The fabric totals are set to the sum of the per-switch and per-port
// counts (nothing on the hot path writes them). FCT records are k-way merged
// by (Finish, within-shard order, FlowID tiebreak across shards), which is the
// serial completion order: within a shard, completion order is the serial
// order restricted to the shard, and cross-shard ties at one instant are
// broken canonically. For one shard that is an in-order append.
func (g *Sharding) mergeResults() {
	n := g.net
	n.Drops.N, n.PauseFrames.N, n.LongPauses.N = 0, 0, 0
	for _, h := range n.Hosts {
		n.LongPauses.N += h.port.longPauses
	}
	for _, s := range n.Switches {
		n.Drops.N += s.Drops
		n.PauseFrames.N += s.PauseFrames
		for i := range s.ports {
			n.LongPauses.N += s.ports[i].longPauses
		}
	}
	for {
		var best *Shard
		for _, sh := range g.shards {
			if sh.merged == len(sh.fct.Records) {
				continue
			}
			if best == nil {
				best = sh
				continue
			}
			a, b := sh.fct.Records[sh.merged], best.fct.Records[best.merged]
			if a.Finish < b.Finish || (a.Finish == b.Finish && a.FlowID < b.FlowID) {
				best = sh
			}
		}
		if best == nil {
			break
		}
		n.FCT.Record(best.fct.Records[best.merged])
		best.merged++
	}
	for _, sh := range g.shards {
		sh.fct.Records, sh.merged = sh.fct.Records[:0], 0
	}
}
