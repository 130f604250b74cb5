package sim

import "testing"

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if e.Pending() > 1024 {
			for e.Step() {
			}
		}
	}
	for e.Step() {
	}
}

func BenchmarkEngineHotLoop(b *testing.B) {
	// A self-rescheduling event — the steady-state pattern of a busy port.
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	b.ResetTimer()
	e.Run()
	if n != b.N {
		b.Fatalf("ran %d of %d", n, b.N)
	}
}

func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	evs := make([]Event, 0, 1024)
	for i := 0; i < b.N; i++ {
		evs = append(evs, e.Schedule(Time(i), func() {}))
		if len(evs) == 1024 {
			for _, ev := range evs {
				e.Cancel(ev)
			}
			evs = evs[:0]
			for e.Step() { // sweep tombstones so the queue stays bounded
			}
		}
	}
}

// BenchmarkEngineScheduleArgFire is the closure-free hot path: a
// package-scope callback plus a pointer argument, zero allocations per
// event.
func BenchmarkEngineScheduleArgFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	var sink int
	bump := func(v any) { *v.(*int)++ }
	for i := 0; i < b.N; i++ {
		e.AfterArg(Time(i%1000), bump, &sink)
		if e.Pending() > 1024 {
			for e.Step() {
			}
		}
	}
	for e.Step() {
	}
	if sink != b.N {
		b.Fatalf("fired %d of %d", sink, b.N)
	}
}

// BenchmarkEngineChurn is the mixed steady-state pattern of a busy
// simulation: schedule, cancel half (retransmission timers disarmed by
// ACKs), fire the rest.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keep := e.Schedule(Time(2*i), func() {})
		kill := e.Schedule(Time(2*i+1), func() {})
		e.Cancel(kill)
		_ = keep
		e.Step()
	}
	for e.Step() {
	}
}

// retxChurn is the pattern of an ACK-clocked sender: a few dozen
// self-rescheduling short events, each firing cancels and re-arms one long
// timer, so tombstones pile up far behind the live front.
type retxChurn struct {
	e       *Engine
	timer   Event
	left    int
	timeout Time
}

func retxChurnFire(v any) {
	c := v.(*retxChurn)
	c.e.Cancel(c.timer)
	c.timer = c.e.AfterArg(c.timeout, retxChurnTimeout, c)
	if c.left--; c.left > 0 {
		c.e.AfterArg(100, retxChurnFire, c)
	}
}

func retxChurnTimeout(any) {}

// startRetxChurn arms the flows so that events fires in total across them.
func startRetxChurn(e *Engine, flows, events int, timeout Time) {
	for i := 0; i < flows; i++ {
		c := &retxChurn{e: e, timeout: timeout, left: events / flows}
		if i < events%flows {
			c.left++
		}
		if c.left > 0 {
			e.AfterArg(Time(1+i), retxChurnFire, c)
		}
	}
}

// BenchmarkEngineRetxChurn is the ACK-clocked sender the rest of the suite
// lacked (see retxChurn): 32 flows firing every 100 ps, each firing cancelling
// and re-arming a timer 4096 firings out, so ~131k tombstones stand behind
// ~64 live events — the fct-websearch queue shape. One op is one firing: a
// cancel and two schedules. queue-hw is the high-water mark of queued
// entries, live and tombstoned (every queued entry holds one slot).
func BenchmarkEngineRetxChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	startRetxChurn(e, 32, b.N, 4096*100)
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(e.Stats().Slots), "queue-hw")
}

// serializeChurn is one source on the transmit side of a busy fabric: each
// firing finishes a frame, hands it to a link that delivers it a constant
// propagation delay later, and re-arms at now plus the serialization time of
// the next frame, whose size is one of a few. Times of different sizes
// interleave, so most re-arms extend no lane: this is the pattern that sends
// a packet run's transmit completions to the radix.
type serializeChurn struct {
	e    *Engine
	x    uint32 // frame-size sequence (an LCG)
	left int
}

// serializeTimes are serialization times at 100 Gbps of eight frame sizes:
// a full 1518-byte frame, shorter last segments and ACKs. With 64 sources,
// 62 % of re-arms fit no lane and meet about ten entries in the radix.
var serializeTimes = [8]Time{121_440, 80_000, 40_960, 20_480, 10_240, 6_720, 5_760, 5_120}

func serializeChurnFire(v any) {
	c := v.(*serializeChurn)
	c.e.AfterArg(1_500_000, serializeChurnDeliver, nil)
	if c.left--; c.left > 0 {
		c.x = c.x*1664525 + 1013904223
		c.e.AfterArg(serializeTimes[c.x>>29], serializeChurnFire, c)
	}
}

func serializeChurnDeliver(any) {}

// startSerializeChurn arms sources so that firings fire in total across
// them, not counting the deliveries.
func startSerializeChurn(e *Engine, sources, firings int) {
	for i := 0; i < sources; i++ {
		c := &serializeChurn{e: e, x: uint32(i), left: firings / sources}
		if i < firings%sources {
			c.left++
		}
		if c.left > 0 {
			e.AfterArg(Time(1+i), serializeChurnFire, c)
		}
	}
}

// BenchmarkEngineSerializeChurn is 64 transmitters beside one propagation
// stream (see serializeChurn). One op is one transmit completion and the
// delivery it schedules: two events, most of the first kind through the
// radix.
func BenchmarkEngineSerializeChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	startSerializeChurn(e, 64, b.N)
	b.ResetTimer()
	e.Run()
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x ^= r.Uint64()
	}
	_ = x
}

func BenchmarkRNGExp(b *testing.B) {
	r := NewRNG(1)
	var x float64
	for i := 0; i < b.N; i++ {
		x += r.ExpFloat64()
	}
	_ = x
}

func BenchmarkTxTime(b *testing.B) {
	var t Time
	for i := 0; i < b.N; i++ {
		t += TxTime(1518, 400e9)
	}
	_ = t
}
