package exp

import (
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// offer puts one flow per sender on the chain, sender i starting at i*gap.
func offer(t testing.TB, pc *PacketChain, size int64, gap sim.Time) {
	t.Helper()
	recv := pc.Hosts() - 1
	for i := 0; i < recv; i++ {
		fs := workload.FlowSpec{ID: uint64(i + 1), SrcHost: i, DstHost: recv, SizeBytes: size, Start: sim.Time(i) * gap}
		if err := pc.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMicroSenderScaling: the dumbbell with 4 senders joining 100 us apart
// still converges to an aggregate near line rate for FNCC (N scales in
// LHCS). The join offset is not a spec field, so this drives the chain
// fabric with its own flow list and watch.
func TestMicroSenderScaling(t *testing.T) {
	const join, period = 100 * sim.Microsecond, sim.Microsecond
	pc, err := NewPacketChain(MustScheme(SchemeFNCC), netsim.DefaultConfig(), topo.DefaultChainOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	offer(t, pc, 1<<40, join)
	if len(pc.Flows) != 4 {
		t.Fatalf("flows: %d", len(pc.Flows))
	}
	pc.Watch = telemetry.Watch{Interval: period, Port: pc.Chain.BottleneckPort(), Reductions: []telemetry.Reduction{
		{Metric: "peak", Reduce: telemetry.ReduceMax, N: 1},
		{Metric: "util", Reduce: telemetry.ReduceMean, Col: 1, N: 1, From: join}}}
	pc.Hold = true
	res := pc.Run(1500*sim.Microsecond, nil)
	peak, util := pc.Watch.Reductions[0].Value, pc.Watch.Reductions[1].Value
	if res.Done {
		t.Fatal("elephants finished inside the window")
	}
	if util < 0.7 {
		t.Fatalf("4-sender utilization %.2f", util)
	}
	if peak > 500<<10 {
		t.Fatalf("queue peak %.0fKB at PFC threshold", peak/1024)
	}
}

// incastPeak runs a fanout-to-1 burst behind the last-hop switch to
// completion and returns that switch's egress queue peak.
func incastPeak(t *testing.T, scheme string, fanout int, bytes int64) (peak int64, pc *PacketChain) {
	t.Helper()
	opts := topo.DefaultChainOpts(fanout)
	for i := range opts.SenderAttach {
		opts.SenderAttach[i] = opts.Switches - 1
	}
	pc, err := NewPacketChain(MustScheme(scheme), netsim.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	offer(t, pc, bytes, 0)
	pc.Watch = telemetry.Watch{Interval: 5 * sim.Microsecond, Port: pc.Chain.HopPort(opts.Switches - 1),
		Reductions: []telemetry.Reduction{{Metric: "peak", Reduce: telemetry.ReduceMax, N: 1}}}
	if res := pc.Run(100*sim.Millisecond, nil); !res.Done || res.FCT.N() != fanout {
		t.Fatalf("%s: incast incomplete: done=%v, %d of %d flows", scheme, res.Done, res.FCT.N(), fanout)
	}
	return int64(pc.Watch.Reductions[0].Value), pc
}

func TestExpressPassEndToEnd(t *testing.T) {
	// The receiver-driven extension on the chain fabric: a small incast
	// where credit pacing keeps the last-hop queue near-empty.
	credit, pc := incastPeak(t, SchemeExpressPass, 8, 256<<10)
	if n := pc.Chain.Switches[2].PauseFrames; n != 0 {
		t.Fatalf("credit pacing triggered %d pauses", n)
	}
	// Compare against FNCC's window burst: ExpressPass should hold a much
	// smaller peak (it never lets a BDP-sized burst leave the senders).
	if burst, _ := incastPeak(t, SchemeFNCC, 8, 256<<10); credit >= burst {
		t.Fatalf("credit peak %d !< window-burst peak %d", credit, burst)
	}
}

func TestExtensionsInRegistry(t *testing.T) {
	for _, name := range []string{SchemeTimely, SchemeSwift, SchemeExpressPass} {
		s, err := NewScheme(name)
		if err != nil || s.Name != name {
			t.Fatalf("%s registry: %v", name, err)
		}
	}
}

// TestPacketChainRejects: what the four runners used to refuse that a spec
// cannot express is refused by the fabric — a topology that does not build,
// and a flow that does not end on the receiver.
func TestPacketChainRejects(t *testing.T) {
	scheme, cfg := MustScheme(SchemeFNCC), netsim.DefaultConfig()
	opts := topo.DefaultChainOpts(2)
	opts.SenderAttach[1] = opts.Switches
	if _, err := NewPacketChain(scheme, cfg, opts); err == nil {
		t.Error("accepted a sender attached past the last switch")
	}
	pc, err := NewPacketChain(scheme, cfg, topo.DefaultChainOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if pc.Hosts() != 3 {
		t.Fatalf("hosts = %d, want 2 senders + the receiver", pc.Hosts())
	}
	for _, fs := range []workload.FlowSpec{
		{ID: 1, SrcHost: 0, DstHost: 1, SizeBytes: 1000},  // sender to sender
		{ID: 2, SrcHost: 2, DstHost: 2, SizeBytes: 1000},  // from the receiver
		{ID: 3, SrcHost: -1, DstHost: 2, SizeBytes: 1000}, // no such host
	} {
		if err := pc.AddFlow(fs); err == nil || !strings.Contains(err.Error(), "only receiver") {
			t.Errorf("flow %d -> %d: err = %v", fs.SrcHost, fs.DstHost, err)
		}
	}
	if len(pc.Flows) != 0 {
		t.Errorf("%d refused flows were kept", len(pc.Flows))
	}
}
