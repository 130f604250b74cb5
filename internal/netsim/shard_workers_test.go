package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// The tests in this file pin the lifecycle of the sharded executor's window
// workers: how many run, that none outlives the call that started it, and
// what a panic inside a window turns into.

// atGOMAXPROCS sets the P count for one test. The width clamp reads it when
// runUntil starts.
func atGOMAXPROCS(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// settleGoroutines waits for the goroutine count to come back to base. A
// helper counts itself done as its last act, so runUntil can return a few
// instructions before the runtime has retired it.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the run: a window worker outlived it", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestShardWidthClamp: min(workers, shards, GOMAXPROCS) workers run windows,
// while Workers keeps reporting what was configured — that number is in
// parallel_workers, so in golden digests and the cache identity.
func TestShardWidthClamp(t *testing.T) {
	for _, tc := range []struct{ procs, shards, workers, width int }{
		{1, 5, 8, 1},
		{2, 5, 8, 2},
		{8, 5, 8, 5},
		{8, 5, 3, 3},
		{8, 2, 1, 1},
	} {
		atGOMAXPROCS(t, tc.procs)
		n := MustNew(DefaultConfig(), fixedScheme(gbps100))
		n.ConfigureSharding(tc.shards, tc.workers)
		st := n.ShardStats()
		if st.Width != tc.width || st.Workers != tc.workers {
			t.Errorf("GOMAXPROCS=%d shards=%d workers=%d: Width=%d Workers=%d, want %d and %d",
				tc.procs, tc.shards, tc.workers, st.Width, st.Workers, tc.width, tc.workers)
		}
	}
}

// TestShardWorkersExit: helpers are gone when the run returns, whether it
// finished, hit its deadline first, or ran at width 1 and never started one.
// The same transfer gives the same answer at every width.
func TestShardWorkersExit(t *testing.T) {
	var finished sim.Time
	for _, procs := range []int{1, 2} {
		atGOMAXPROCS(t, procs)
		base := runtime.NumGoroutine()

		n, h0, h1 := shardedPair(t, 8)
		f := n.AddFlow(1, h0, h1, 500_000, 0)
		if n.RunToCompletion(10 * sim.Microsecond) {
			t.Fatalf("GOMAXPROCS=%d: 500 KB finished in 10 us", procs)
		}
		settleGoroutines(t, base)
		if !n.RunToCompletion(sim.Millisecond) {
			t.Fatalf("GOMAXPROCS=%d: flow did not complete", procs)
		}
		settleGoroutines(t, base)

		st := n.ShardStats()
		if st.Width != procs || st.Workers != 8 {
			t.Errorf("GOMAXPROCS=%d: Width=%d Workers=%d, want %d and 8", procs, st.Width, st.Workers, procs)
		}
		if st.BusyNs <= 0 || st.WaitNs <= 0 {
			t.Errorf("GOMAXPROCS=%d: BusyNs=%d WaitNs=%d, want both positive", procs, st.BusyNs, st.WaitNs)
		}
		if finished == 0 {
			finished = f.FinishedAt
		} else if f.FinishedAt != finished {
			t.Errorf("FinishedAt = %v at width %d, %v at width 1", f.FinishedAt, procs, finished)
		}
	}
}

// explodingCC panics on its fuse-th ACK: a modelling bug in the middle of a
// window, on whichever worker claimed the sender's shard.
type explodingCC struct {
	fixedCC
	fuse int
}

func (c *explodingCC) OnAck(*Flow, *packet.Packet, sim.Time) {
	if c.fuse--; c.fuse == 0 {
		panic("explodingCC: boom")
	}
}

// TestShardWindowPanicReachesCaller: at width 2 a panic inside a window is
// raised again on the goroutine that called RunUntil, where a recover sees
// it, carrying the worker's stack; the other worker has left. At the parent
// commit the window goroutine's panic killed the process.
func TestShardWindowPanicReachesCaller(t *testing.T) {
	atGOMAXPROCS(t, 2)
	base := runtime.NumGoroutine()

	n, h0, h1 := shardedPairWith(t, Scheme{
		Name: "exploding",
		NewSenderCC: func(*Flow) SenderCC {
			return &explodingCC{fixedCC: fixedCC{rate: gbps100, window: 1 << 40}, fuse: 20}
		},
		Receiver: echoReceiver{},
	}, 2)
	n.AddFlow(1, h0, h1, 500_000, 0)

	var got any
	func() {
		defer func() { got = recover() }()
		n.RunUntil(sim.Millisecond)
	}()
	wp, ok := got.(*WindowPanic)
	if !ok {
		t.Fatalf("recovered %#v, want a *WindowPanic", got)
	}
	if wp.Value != "explodingCC: boom" {
		t.Errorf("Value = %v", wp.Value)
	}
	if !strings.Contains(string(wp.Stack), "explodingCC") || !strings.Contains(wp.Error(), "explodingCC).OnAck") {
		t.Errorf("the worker's stack does not show the panicking frame:\n%s", wp.Stack)
	}
	settleGoroutines(t, base)
}

// schedulePanic is what scheduling one event on eng panics with, or "".
func schedulePanic(eng *sim.Engine) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	eng.AfterArg(1, func(any) {}, nil)
	return ""
}

// TestShardEnginesReleasedOnceAfterStats: ReleaseEngines ends every shard's
// engine (Network.Eng is shard 0's), each once, and only what was read before
// it counts as the run's stats — which stay readable and unchanged afterwards.
// The stores
// go back from the coordinator's goroutine after the window workers have
// written them (-race checks that hand-over), and the next network, built on
// them, gets the same answer.
func TestShardEnginesReleasedOnceAfterStats(t *testing.T) {
	atGOMAXPROCS(t, 2)
	var first sim.EngineStats
	var finished sim.Time
	for round := 0; round < 3; round++ {
		n, h0, h1 := shardedPair(t, 2)
		f := n.AddFlow(1, h0, h1, 200_000, 0)
		if !n.RunToCompletion(sim.Millisecond) {
			t.Fatal("flow did not complete")
		}
		engines := []*sim.Engine{n.Eng}
		for _, sh := range n.Shards()[1:] {
			engines = append(engines, sh.eng)
		}
		for i, eng := range engines {
			if msg := schedulePanic(eng); msg != "" {
				t.Fatalf("engine %d refused an event before the release: %s", i, msg)
			}
		}

		want := n.TotalEngineStats()
		n.ReleaseEngines()
		n.ReleaseEngines()
		if got := n.TotalEngineStats(); got != want {
			t.Errorf("TotalEngineStats after the release = %+v, before %+v", got, want)
		}
		for i, eng := range engines {
			if msg := schedulePanic(eng); !strings.Contains(msg, "Release") {
				t.Errorf("engine %d after ReleaseEngines: panic %q, want one naming Release", i, msg)
			}
		}
		// More engines than stores went back, all alive at once: a store put
		// back twice would now be under two of them, and one's event would
		// fire from the other's queue.
		next := make([]*sim.Engine, 2*len(engines))
		fired := make([]int, len(next))
		for i := range next {
			next[i] = sim.NewEngine()
			next[i].AfterArg(sim.Time(1+i), func(v any) { *v.(*int)++ }, &fired[i])
		}
		for i, e := range next {
			if e.Run(); fired[i] != 1 || e.Stats().Slots != 1 {
				t.Fatalf("engine %d built after the release: its event fired %d times, %d slots", i, fired[i], e.Stats().Slots)
			}
		}

		if round == 0 {
			first, finished = want, f.FinishedAt
		} else if want != first || f.FinishedAt != finished {
			t.Errorf("round %d on released storage: stats %+v finished %v, first round %+v and %v",
				round, want, f.FinishedAt, first, finished)
		}
	}
}
