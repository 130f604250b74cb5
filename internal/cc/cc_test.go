package cc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
)

const gbps100 = int64(100e9)

// newTestFlow builds a two-host network and one registered (not started)
// flow so CC constructors have a line rate and base RTT to read.
func newTestFlow(t *testing.T, sch netsim.Scheme) (*netsim.Network, *netsim.Flow) {
	t.Helper()
	cfg := netsim.DefaultConfig()
	cfg.BaseRTT = 13 * sim.Microsecond
	n := netsim.MustNew(cfg, sch)
	h0, h1 := n.NewHost(), n.NewHost()
	netsim.Connect(h0.Port(), h1.Port(), gbps100, 1500*sim.Nanosecond)
	f := n.AddFlow(1, h0, h1, 1<<30, sim.Second) // starts far in the future
	return n, f
}

// mkAck crafts an HPCC-style ACK with one INT hop.
func mkAck(seq int64, ts sim.Time, txBytes uint64, qlen uint32, b int64) *packet.Packet {
	return &packet.Packet{
		Type: packet.Ack, Seq: seq, Ordering: packet.SenderToReceiver,
		Hops: []packet.IntHop{{SwitchID: 1, PortID: 1, B: b, TS: ts, TxBytes: txBytes, QLen: qlen}},
	}
}

func TestHPCCInitialWindowIsBDP(t *testing.T) {
	_, f := newTestFlow(t, NewHPCCScheme(DefaultHPCCConfig()))
	h := f.CC().(*HPCC)
	bdp := float64(gbps100) / 8 * h.T.Seconds()
	if math.Abs(h.W-(bdp+1518)) > 1 {
		t.Fatalf("W0 = %v, want BDP+MTU = %v", h.W, bdp+1518)
	}
	if h.RateBps() != gbps100 {
		t.Fatalf("initial rate = %d", h.RateBps())
	}
}

func TestHPCCDecreasesUnderCongestion(t *testing.T) {
	_, f := newTestFlow(t, NewHPCCScheme(DefaultHPCCConfig()))
	h := f.CC().(*HPCC)
	w0 := h.W

	// Two samples 10us apart: full-rate txRate plus a deep queue =>
	// U well above eta => multiplicative decrease.
	bytesIn10us := uint64(sim.BytesAt(gbps100, 10*sim.Microsecond))
	h.OnAck(f, mkAck(1_000, 100*sim.Microsecond, 1_000_000, 400_000, gbps100), 0)
	h.OnAck(f, mkAck(2_000, 110*sim.Microsecond, 1_000_000+bytesIn10us, 400_000, gbps100), 0)

	if h.W >= w0 {
		t.Fatalf("window did not shrink: %v -> %v", w0, h.W)
	}
	if h.RateBps() >= gbps100 {
		t.Fatalf("rate did not shrink: %d", h.RateBps())
	}
	// Deep queue + line-rate tx: utilization far above 1.
	if h.U < 1 {
		t.Fatalf("U = %v, want > 1", h.U)
	}
}

func TestHPCCAdditiveIncreaseWhenIdle(t *testing.T) {
	cfg := DefaultHPCCConfig()
	_, f := newTestFlow(t, NewHPCCScheme(cfg))
	h := f.CC().(*HPCC)
	h.W, h.Wc = 50_000, 50_000 // mid-range so AI is visible

	// Low utilization: half-rate tx, empty queue.
	bytesIn10us := uint64(sim.BytesAt(gbps100/2, 10*sim.Microsecond))
	h.OnAck(f, mkAck(1_000, 100*sim.Microsecond, 0, 0, gbps100), 0)
	w1 := h.W
	h.OnAck(f, mkAck(2_000, 110*sim.Microsecond, bytesIn10us, 0, gbps100), 0)
	if h.W <= w1 {
		t.Fatalf("window should additively increase: %v -> %v", w1, h.W)
	}
	if h.W > w1+2*cfg.WaiBytes {
		t.Fatalf("increase %v exceeds AI step", h.W-w1)
	}
}

func TestHPCCMaxStageForcesMI(t *testing.T) {
	cfg := DefaultHPCCConfig()
	_, f := newTestFlow(t, NewHPCCScheme(cfg))
	h := f.CC().(*HPCC)
	h.W, h.Wc = 50_000, 50_000

	// Prime, then feed many low-utilization per-RTT updates. Window updates
	// happen when ack.Seq > lastUpdateSeq; with SndNxt()==0 on an unstarted
	// flow every positive seq qualifies, so every ACK is a "first ACK of a
	// new window".
	ts := 100 * sim.Microsecond
	var tx uint64
	h.OnAck(f, mkAck(1, ts, tx, 0, gbps100), 0)
	for i := 0; i < cfg.MaxStage+2; i++ {
		ts += 10 * sim.Microsecond
		tx += uint64(sim.BytesAt(gbps100/2, 10*sim.Microsecond))
		h.OnAck(f, mkAck(int64(i+2), ts, tx, 0, gbps100), 0)
	}
	// After MaxStage AI rounds the MI branch fires: with U ~ 0.5 the window
	// jumps well above the AI staircase (Wc/(U/eta) ~ 1.9x).
	if h.W < 80_000 {
		t.Fatalf("MI jump missing: W = %v", h.W)
	}
}

func TestHPCCWindowClamps(t *testing.T) {
	_, f := newTestFlow(t, NewHPCCScheme(DefaultHPCCConfig()))
	h := f.CC().(*HPCC)
	maxW := h.W

	// Monstrous congestion cannot push W below one MTU.
	h.OnAck(f, mkAck(1_000, 100*sim.Microsecond, 0, 10_000_000, gbps100), 0)
	h.OnAck(f, mkAck(2_000, 101*sim.Microsecond,
		uint64(sim.BytesAt(gbps100, sim.Microsecond)), 10_000_000, gbps100), 0)
	if h.W < 1518 {
		t.Fatalf("W below MTU: %v", h.W)
	}
	// And repeated idle increases cannot exceed the initial BDP cap.
	h.W, h.Wc = maxW, maxW
	ts := sim.Millisecond
	var tx uint64
	for i := 0; i < 50; i++ {
		ts += 10 * sim.Microsecond
		tx += 1000
		h.OnAck(f, mkAck(int64(3000+i), ts, tx, 0, gbps100), 0)
	}
	if h.W > maxW+1 {
		t.Fatalf("W exceeded cap: %v > %v", h.W, maxW)
	}
}

func TestHPCCFirstAckOnlyPrimes(t *testing.T) {
	_, f := newTestFlow(t, NewHPCCScheme(DefaultHPCCConfig()))
	h := f.CC().(*HPCC)
	w0 := h.W
	h.OnAck(f, mkAck(1_000, 100*sim.Microsecond, 1_000_000, 500_000, gbps100), 0)
	if h.W != w0 {
		t.Fatalf("first ACK changed the window: %v -> %v", w0, h.W)
	}
}

func TestHPCCPathChangeResets(t *testing.T) {
	_, f := newTestFlow(t, NewHPCCScheme(DefaultHPCCConfig()))
	h := f.CC().(*HPCC)
	h.OnAck(f, mkAck(1_000, 100*sim.Microsecond, 1000, 0, gbps100), 0)
	// Same flow, different path (2 hops now): must re-prime, not compute
	// garbage deltas.
	ack := mkAck(2_000, 110*sim.Microsecond, 500, 0, gbps100)
	ack.AddHop(packet.IntHop{SwitchID: 7, B: gbps100, TS: 110 * sim.Microsecond, TxBytes: 1, QLen: 0})
	w0 := h.W
	h.OnAck(f, ack, 0)
	if h.W != w0 {
		t.Fatal("window updated from cross-path INT delta")
	}
}

func TestHPCCIgnoresAckWithoutINT(t *testing.T) {
	_, f := newTestFlow(t, NewHPCCScheme(DefaultHPCCConfig()))
	h := f.CC().(*HPCC)
	w0 := h.W
	h.OnAck(f, &packet.Packet{Type: packet.Ack, Seq: 500}, 0)
	if h.W != w0 {
		t.Fatal("INT-less ACK changed state")
	}
}

func TestHPCCZeroIntervalGuard(t *testing.T) {
	_, f := newTestFlow(t, NewHPCCScheme(DefaultHPCCConfig()))
	h := f.CC().(*HPCC)
	// Two ACKs stamped in the same instant: dt == 0 must not divide.
	h.OnAck(f, mkAck(1_000, 100*sim.Microsecond, 1000, 0, gbps100), 0)
	h.OnAck(f, mkAck(2_000, 100*sim.Microsecond, 1000, 0, gbps100), 0)
	h.OnAck(f, mkAck(3_000, 100*sim.Microsecond, 1000, 0, gbps100), 0)
	if math.IsNaN(h.W) || math.IsInf(h.W, 0) {
		t.Fatalf("window poisoned: %v", h.W)
	}
}

// Property: the HPCC window stays within [MinWnd, BDP+MTU] and finite for
// arbitrary INT sequences (adversarial telemetry cannot break invariants).
func TestQuickHPCCWindowBounds(t *testing.T) {
	_, f := newTestFlow(t, NewHPCCScheme(DefaultHPCCConfig()))
	h := f.CC().(*HPCC)
	maxW := h.W
	seq := int64(0)
	ts := sim.Time(1)
	fn := func(dtNs uint32, txDelta uint32, qlen uint32) bool {
		seq += 1000
		ts += sim.Time(dtNs%1_000_000) * sim.Nanosecond
		ack := mkAck(seq, ts, uint64(txDelta)*uint64(seq), qlen, gbps100)
		h.OnAck(f, ack, ts)
		return h.W >= 1517.9 && h.W <= maxW+1 && !math.IsNaN(h.W) && !math.IsInf(h.W, 0) &&
			h.RateBps() >= 0 && h.RateBps() <= gbps100+1
	}
	if err := quickCheck(fn, 3000); err != nil {
		t.Fatal(err)
	}
}

// quickCheck is a tiny driver (testing/quick's reflection interferes with
// the closure's accumulated state ordering less predictably; a plain seeded
// loop keeps the sequence adversarial yet reproducible).
func quickCheck(fn func(uint32, uint32, uint32) bool, n int) error {
	rng := sim.NewRNG(99)
	for i := 0; i < n; i++ {
		if !fn(uint32(rng.Uint64()), uint32(rng.Uint64()), uint32(rng.Uint64())) {
			return fmt.Errorf("invariant violated at iteration %d", i)
		}
	}
	return nil
}

// DCQCN's sender and receiver are the only CNP extensions. The host finds
// them by type assertion, so a signature that drifted from netsim's would
// silently turn CNPs off; these fail the build instead.
var (
	_ netsim.CnpSink  = (*DCQCN)(nil)
	_ netsim.CnpPacer = dcqcnReceiver{}
)

func TestDCQCNCnpCutsRate(t *testing.T) {
	_, f := newTestFlow(t, NewDCQCNScheme(DefaultDCQCNConfig()))
	d := f.CC().(*DCQCN)
	if d.RateBps() != gbps100 {
		t.Fatalf("initial rate %d", d.RateBps())
	}
	d.OnCnp(f, 0)
	// alpha starts at 1: first cut halves the rate.
	if got := d.RateBps(); got != gbps100/2 {
		t.Fatalf("rate after first CNP = %d, want %d", got, gbps100/2)
	}
	if math.Abs(d.alpha-(1-1.0/256+1.0/256)) > 1e-12 { // (1-g)*1+g = 1
		t.Fatalf("alpha = %v", d.alpha)
	}
	d.OnCnp(f, 0)
	if got := d.RateBps(); got != gbps100/4 {
		t.Fatalf("rate after second CNP = %d", got)
	}
}

func TestDCQCNRateFloor(t *testing.T) {
	cfg := DefaultDCQCNConfig()
	_, f := newTestFlow(t, NewDCQCNScheme(cfg))
	d := f.CC().(*DCQCN)
	for i := 0; i < 100; i++ {
		d.OnCnp(f, 0)
	}
	if d.RateBps() < cfg.MinRateBps {
		t.Fatalf("rate %d below floor %d", d.RateBps(), cfg.MinRateBps)
	}
}

func TestDCQCNFastRecoveryAndAI(t *testing.T) {
	cfg := DefaultDCQCNConfig()
	n, f := newTestFlow(t, NewDCQCNScheme(cfg))
	d := f.CC().(*DCQCN)
	d.OnCnp(f, 0) // rc=50G, rt=100G, stages reset, timers armed

	// Fast recovery: each timer tick halves the gap to rt.
	n.Eng.RunUntil(cfg.IncTimer + sim.Microsecond)
	r1 := d.RateBps()
	if r1 <= gbps100/2 || r1 > 80e9 {
		t.Fatalf("after 1 FR step rate = %d", r1)
	}
	// After F ticks we are in additive increase; rate approaches rt=100G
	// and rt grows in small RateAI steps; rate must keep rising slowly.
	n.Eng.RunUntil(cfg.IncTimer * 20)
	r2 := d.RateBps()
	if r2 <= r1 {
		t.Fatalf("rate stopped recovering: %d -> %d", r1, r2)
	}
	if r2 > gbps100 {
		t.Fatalf("rate above line: %d", r2)
	}
}

func TestDCQCNAlphaDecays(t *testing.T) {
	cfg := DefaultDCQCNConfig()
	n, f := newTestFlow(t, NewDCQCNScheme(cfg))
	d := f.CC().(*DCQCN)
	d.OnCnp(f, 0)
	a0 := d.alpha
	n.Eng.RunUntil(cfg.AlphaTimer*10 + sim.Microsecond)
	if d.alpha >= a0 {
		t.Fatalf("alpha did not decay: %v -> %v", a0, d.alpha)
	}
}

func TestDCQCNByteCounterTriggersIncrease(t *testing.T) {
	cfg := DefaultDCQCNConfig()
	cfg.ByteCounter = 10_000 // tiny for the test
	_, f := newTestFlow(t, NewDCQCNScheme(cfg))
	d := f.CC().(*DCQCN)
	d.OnCnp(f, 0)
	r0 := d.RateBps()
	d.OnAck(f, &packet.Packet{Type: packet.Ack, Seq: 20_000}, 0)
	if d.RateBps() <= r0 {
		t.Fatalf("byte counter did not trigger increase: %d -> %d", r0, d.RateBps())
	}
	if d.byteStage != 1 {
		t.Fatalf("byteStage = %d", d.byteStage)
	}
}

func TestWREDMarking(t *testing.T) {
	cfg := netsim.DefaultConfig()
	dc := DefaultDCQCNConfig()
	// Force queue buildup with the DCQCN scheme on a 2:1 dumbbell and a
	// tiny Kmin: marks must appear, and CNPs must slow the senders.
	dc.KminBytes = 20_000
	dc.KmaxBytes = 80_000
	sch := NewDCQCNScheme(dc)
	c := topo.MustChain(cfg, sch, topo.DefaultChainOpts(2))
	f0 := c.AddFlow(1, 0, 3_000_000, 0)
	f1 := c.AddFlow(2, 1, 3_000_000, 0)
	c.Net.RunUntil(500 * sim.Microsecond)

	r0 := f0.CC().RateBps()
	r1 := f1.CC().RateBps()
	if r0 >= gbps100 && r1 >= gbps100 {
		t.Fatalf("DCQCN never slowed down: %d / %d", r0, r1)
	}
}

func TestRoCCSenderObeysAdvertisement(t *testing.T) {
	_, f := newTestFlow(t, NewRoCCScheme(DefaultRoCCConfig()))
	r := f.CC().(*RoCCSender)
	r.OnAck(f, &packet.Packet{Type: packet.Ack, FairRateBps: 30e9}, 0)
	if r.RateBps() != 30e9 {
		t.Fatalf("rate = %d", r.RateBps())
	}
	// No advertisement: relax upward.
	r.OnAck(f, &packet.Packet{Type: packet.Ack}, 0)
	if r.RateBps() <= 30e9 {
		t.Fatal("rate did not relax upward")
	}
	// Advertisement above line rate clamps.
	r.OnAck(f, &packet.Packet{Type: packet.Ack, FairRateBps: 500e9}, 0)
	if r.RateBps() != gbps100 {
		t.Fatalf("rate = %d, want line", r.RateBps())
	}
}

func TestRoCCConvergesToFairShareEventually(t *testing.T) {
	// Two flows into one 100G bottleneck: within a few ms the PI controller
	// should bring the aggregate near the line rate with a bounded queue.
	cfg := netsim.DefaultConfig()
	sch := NewRoCCScheme(DefaultRoCCConfig())
	c := topo.MustChain(cfg, sch, topo.DefaultChainOpts(2))
	f0 := c.AddFlow(1, 0, 1<<30, 0)
	f1 := c.AddFlow(2, 1, 1<<30, 0)
	c.Net.RunUntil(5 * sim.Millisecond)

	r0, r1 := float64(f0.CC().RateBps()), float64(f1.CC().RateBps())
	sum := r0 + r1
	if sum < 0.5*float64(gbps100) || sum > 1.4*float64(gbps100) {
		t.Fatalf("aggregate rate %.1fG far from line rate", sum/1e9)
	}
	// Fairness between the two flows (PI advertises one rate to both).
	if ratio := r0 / r1; ratio < 0.5 || ratio > 2 {
		t.Fatalf("unfair split: %.1fG vs %.1fG", r0/1e9, r1/1e9)
	}
}

func TestHPCCClosedLoopBoundsQueue(t *testing.T) {
	// The marquee sanity check: HPCC on the paper's dumbbell keeps the
	// bottleneck queue around/below ~BDP rather than at the PFC threshold.
	cfg := netsim.DefaultConfig()
	sch := NewHPCCScheme(DefaultHPCCConfig())
	c := topo.MustChain(cfg, sch, topo.DefaultChainOpts(2))
	c.AddFlow(1, 0, 1<<30, 0)
	c.AddFlow(2, 1, 1<<30, 300*sim.Microsecond)

	maxQ := int64(0)
	stop := c.Net.Eng.Ticker(sim.Microsecond, func() {
		if q := c.BottleneckPort().QueueBytes(); q > maxQ {
			maxQ = q
		}
	})
	defer stop()
	c.Net.RunUntil(1200 * sim.Microsecond)

	if maxQ == 0 {
		t.Fatal("no queue ever built — setup broken")
	}
	if maxQ > 450_000 {
		t.Fatalf("HPCC queue peaked at %dKB — congestion control ineffective", maxQ/1000)
	}
	if c.Net.PauseFrames.N > 4 {
		t.Fatalf("HPCC triggered %d pauses", c.Net.PauseFrames.N)
	}
}

func TestHPCCFairConvergence(t *testing.T) {
	cfg := netsim.DefaultConfig()
	sch := NewHPCCScheme(DefaultHPCCConfig())
	c := topo.MustChain(cfg, sch, topo.DefaultChainOpts(2))
	f0 := c.AddFlow(1, 0, 1<<30, 0)
	f1 := c.AddFlow(2, 1, 1<<30, 0)
	c.Net.RunUntil(3 * sim.Millisecond)
	r0, r1 := float64(f0.CC().RateBps()), float64(f1.CC().RateBps())
	if r0/r1 < 0.6 || r0/r1 > 1.7 {
		t.Fatalf("HPCC unfair: %.1fG vs %.1fG", r0/1e9, r1/1e9)
	}
	sum := r0 + r1
	if sum < 0.7*float64(gbps100) || sum > 1.2*float64(gbps100) {
		t.Fatalf("aggregate %.1fG not near line rate", sum/1e9)
	}
}
