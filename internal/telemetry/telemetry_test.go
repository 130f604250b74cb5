package telemetry_test

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/fluid"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

func TestConfigEnabled(t *testing.T) {
	var nilCfg *telemetry.Config
	if nilCfg.Enabled() {
		t.Fatal("nil config reports enabled")
	}
	cases := []struct {
		cfg  telemetry.Config
		want bool
	}{
		{telemetry.Config{}, false},
		{telemetry.Config{Interval: sim.Microsecond}, false},
		{telemetry.Config{Probes: []string{"queue"}}, false},
		{telemetry.Config{Interval: sim.Microsecond, Probes: []string{"queue"}}, true},
		{telemetry.Config{Interval: sim.Microsecond, TraceCap: 8}, true},
	}
	for i, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("case %d: Enabled() = %v, want %v", i, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	var nilCfg *telemetry.Config
	if err := nilCfg.Validate(telemetry.PacketProbes()); err != nil {
		t.Fatalf("nil config: %v", err)
	}
	ok := telemetry.Config{Interval: sim.Microsecond, Probes: []string{"queue", "cc"}}
	if err := ok.Validate(telemetry.PacketProbes()); err != nil {
		t.Fatalf("valid packet config: %v", err)
	}
	bad := []telemetry.Config{
		{Probes: []string{"queue"}},                             // no interval
		{Interval: sim.Microsecond},                             // nothing selected
		{Interval: sim.Microsecond, TraceCap: -1},               // negative cap
		{Interval: sim.Microsecond, Probes: []string{"bogus"}},  // unknown
		{Interval: sim.Microsecond, Probes: []string{"rate"}},   // fluid-only
		{Interval: -sim.Microsecond, Probes: []string{"queue"}}, // negative
	}
	for i, c := range bad {
		if err := c.Validate(telemetry.PacketProbes()); err == nil {
			t.Errorf("case %d: config %+v validated", i, c)
		}
	}
	fl := telemetry.Config{Interval: sim.Microsecond, Probes: []string{"rate", "link"}}
	if err := fl.Validate(telemetry.FluidProbes()); err != nil {
		t.Fatalf("valid fluid config: %v", err)
	}
}

func TestSamplesClamp(t *testing.T) {
	if n := telemetry.Samples(sim.Millisecond, 0); n != 1 {
		t.Fatalf("zero interval: %d samples, want 1", n)
	}
	if n := telemetry.Samples(100*sim.Microsecond, 10*sim.Microsecond); n != 12 {
		t.Fatalf("100/10us: %d samples, want 12", n)
	}
	if n := telemetry.Samples(sim.Time(1<<60), sim.Nanosecond); n != 1<<20 {
		t.Fatalf("huge span: %d samples, want %d", n, 1<<20)
	}
}

// TestRecorderRingWrap drives a 3-slot ring past capacity and checks the
// export keeps the most recent window in chronological order, with slots
// zeroed on reuse so stale values cannot leak into sparse columns.
func TestRecorderRingWrap(t *testing.T) {
	r := telemetry.NewRecorder(sim.Microsecond, 3)
	a := r.AddColumn("a")
	b := r.AddColumn("b")
	// Sample 5 times at t = 1..5us; column b is only written on the first
	// two ticks, which the ring later overwrites.
	for i := 1; i <= 5; i++ {
		row := r.Begin(sim.Time(i) * sim.Microsecond)
		row[a] = float64(10 * i)
		if i <= 2 {
			row[b] = float64(i)
		}
	}
	out := r.Output()
	if out.Samples != 5 {
		t.Fatalf("Samples = %d, want 5", out.Samples)
	}
	wantT := []float64{3, 4, 5}
	if len(out.TimesUs) != len(wantT) {
		t.Fatalf("kept %d samples, want %d", len(out.TimesUs), len(wantT))
	}
	for i, w := range wantT {
		if out.TimesUs[i] != w {
			t.Fatalf("TimesUs[%d] = %v, want %v", i, out.TimesUs[i], w)
		}
	}
	sa := out.SeriesByName("a")
	for i, w := range []float64{30, 40, 50} {
		if sa.Values[i] != w {
			t.Fatalf("a[%d] = %v, want %v", i, sa.Values[i], w)
		}
	}
	for i, v := range out.SeriesByName("b").Values {
		if v != 0 {
			t.Fatalf("b[%d] = %v, want 0 (slot not zeroed on reuse)", i, v)
		}
	}
	if out.SeriesByName("nope") != nil {
		t.Fatal("SeriesByName found a series that does not exist")
	}
}

func TestRecorderAddColumnAfterBeginPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddColumn after Begin did not panic")
		}
	}()
	r := telemetry.NewRecorder(sim.Microsecond, 2)
	r.AddColumn("a")
	r.Begin(0)
	r.AddColumn("b")
}

// chainProbe builds a 2-sender chain with long-lived flows and attaches a
// probe with the given config.
func chainProbe(t *testing.T, scheme string, cfg telemetry.Config) (*topo.Chain, *telemetry.NetProbe) {
	t.Helper()
	s, err := exp.NewScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	opts := topo.DefaultChainOpts(2)
	c, err := topo.BuildChain(netsim.DefaultConfig(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.AddFlow(1, 0, 1<<30, 0)
	c.AddFlow(2, 1, 1<<30, 0)
	return c, telemetry.AttachNet(c.Net, &cfg, sim.Millisecond)
}

func TestNetProbeSeries(t *testing.T) {
	cfg := telemetry.Config{
		Interval: 5 * sim.Microsecond,
		Probes:   telemetry.PacketProbes(),
		TraceCap: 256,
	}
	c, tp := chainProbe(t, exp.SchemeDCQCN, cfg)
	if tp == nil {
		t.Fatal("AttachNet returned nil for an enabled config")
	}
	c.Net.RunUntil(300 * sim.Microsecond)
	tp.Stop()
	out := tp.Output()
	if out.Samples < 50 {
		t.Fatalf("only %d samples over 300us at 5us interval", out.Samples)
	}
	// One series per probed quantity, including the DCQCN Observable vars.
	// Host/switch columns are named by node ID, so match by suffix.
	bySuffix := func(suffix string) *telemetry.Series {
		for i := range out.Series {
			if strings.HasSuffix(out.Series[i].Name, suffix) {
				return &out.Series[i]
			}
		}
		return nil
	}
	for _, suffix := range []string{
		"/ecn_marks", "/cnp_rx", "/retx", "/queue_bytes", "/util",
	} {
		if bySuffix(suffix) == nil {
			t.Errorf("missing series *%s (have %d series)", suffix, len(out.Series))
		}
	}
	for _, name := range []string{
		"flow1/rate_bps", "flow1/cc/alpha", "flow1/cc/target_rate_bps",
	} {
		if out.SeriesByName(name) == nil {
			t.Errorf("missing series %q (have %d series)", name, len(out.Series))
		}
	}
	// Two competing flows through one bottleneck: DCQCN must have marked and
	// sent CNPs by 300us, and the cumulative counters must be monotone.
	var markTotal float64
	for i := range out.Series {
		if strings.HasSuffix(out.Series[i].Name, "/ecn_marks") {
			markTotal += out.Series[i].Values[len(out.Series[i].Values)-1]
		}
	}
	if markTotal == 0 {
		t.Error("no ECN marks recorded in a congested run")
	}
	var cnpTotal float64
	for i := range out.Series {
		if !strings.HasSuffix(out.Series[i].Name, "/cnp_rx") {
			continue
		}
		last := -1.0
		for j, v := range out.Series[i].Values {
			if v < last {
				t.Fatalf("%s not monotone at sample %d: %v -> %v",
					out.Series[i].Name, j, last, v)
			}
			last = v
		}
		cnpTotal += last
	}
	if cnpTotal == 0 {
		t.Error("no CNPs recorded under DCQCN congestion")
	}
	// Rates must be populated and positive while the flows are active.
	rate := out.SeriesByName("flow1/rate_bps").Values
	if rate[len(rate)-1] <= 0 {
		t.Error("flow1 rate not sampled")
	}
	if out.TraceTotal == 0 || len(out.Trace) == 0 {
		t.Fatalf("flight recorder captured nothing (total=%d len=%d)",
			out.TraceTotal, len(out.Trace))
	}
	if len(out.Trace) > cfg.TraceCap {
		t.Fatalf("trace kept %d events, cap %d", len(out.Trace), cfg.TraceCap)
	}
	kinds := map[string]bool{}
	for _, r := range out.Trace {
		kinds[r.Kind] = true
	}
	for _, k := range []string{"enq", "deq"} {
		if !kinds[k] {
			t.Errorf("trace has no %q events (kinds: %v)", k, kinds)
		}
	}
}

// TestNetProbeSteadyStateZeroAlloc is the tentpole's hard requirement from
// the other side: with probes attached, steady-state sampling allocates
// nothing after warm-up.
func TestNetProbeSteadyStateZeroAlloc(t *testing.T) {
	cfg := telemetry.Config{
		Interval: 5 * sim.Microsecond,
		Probes:   telemetry.PacketProbes(),
	}
	c, tp := chainProbe(t, exp.SchemeDCQCN, cfg)
	defer tp.Stop()
	deadline := 200 * sim.Microsecond
	c.Net.RunUntil(deadline) // warm-up: pools filled, rings allocated
	avg := testing.AllocsPerRun(10, func() {
		deadline += 50 * sim.Microsecond
		c.Net.RunUntil(deadline)
	})
	if avg != 0 {
		t.Fatalf("steady-state sampling allocates %.1f objects per 50us slice", avg)
	}
}

func TestAttachNetDisabled(t *testing.T) {
	s, err := exp.NewScheme(exp.SchemeFNCC)
	if err != nil {
		t.Fatal(err)
	}
	c, err := topo.BuildChain(netsim.DefaultConfig(), s, topo.DefaultChainOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if tp := telemetry.AttachNet(c.Net, &telemetry.Config{}, sim.Millisecond); tp != nil {
		t.Fatal("AttachNet attached a probe for the zero config")
	}
	if c.Net.Trace != nil {
		t.Fatal("disabled config installed a trace sink")
	}
}

func TestFluidProbeSeries(t *testing.T) {
	fanout := 4
	attach := make([]int, fanout)
	for i := range attach {
		attach[i] = 2
	}
	fb, err := fluid.NewChain(fluid.DefaultConfig(), fluid.ChainOpts{
		Switches:     3,
		SenderAttach: attach,
		RateBps:      100e9,
		Delay:        sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := fluid.NewSim(fb, fluid.Model{})
	receiver := fb.Hosts - 1
	for i := 0; i < fanout; i++ {
		if _, err := s.AddFlow(uint64(i+1), i, receiver, 10<<20, 0); err != nil {
			t.Fatal(err)
		}
	}
	cfg := telemetry.Config{
		Interval: 20 * sim.Microsecond,
		Probes:   telemetry.FluidProbes(),
	}
	tp := telemetry.AttachFluid(s, &cfg, 10*sim.Millisecond)
	if tp == nil {
		t.Fatal("AttachFluid returned nil for an enabled config")
	}
	s.Run(10 * sim.Millisecond)
	out := tp.Output()
	if out.Samples < 10 {
		t.Fatalf("only %d fluid samples", out.Samples)
	}
	// While all 4 flows share the receiver access link, each holds 1/4 of
	// it and the bottleneck link sits at full occupancy.
	rates := out.SeriesByName("flow1/rate_bps")
	if rates == nil {
		t.Fatal("missing flow1/rate_bps")
	}
	mid := len(rates.Values) / 4
	if got, want := rates.Values[mid], 25e9; got < want*0.99 || got > want*1.01 {
		t.Fatalf("flow1 rate at sample %d = %g, want ~%g", mid, got, want)
	}
	var occPeak float64
	for _, sr := range out.Series {
		if !strings.Contains(sr.Name, "occupancy") {
			continue
		}
		for _, v := range sr.Values {
			if v > occPeak {
				occPeak = v
			}
			if v > 1.0000001 {
				t.Fatalf("%s exceeds capacity: %v", sr.Name, v)
			}
		}
	}
	if occPeak < 0.99 {
		t.Fatalf("bottleneck occupancy peak %v, want ~1", occPeak)
	}
}

func TestAttachFluidPacketOnlyProbes(t *testing.T) {
	fb, err := fluid.NewChain(fluid.DefaultConfig(), fluid.ChainOpts{
		Switches: 1, SenderAttach: []int{0}, RateBps: 100e9, Delay: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := fluid.NewSim(fb, fluid.Model{})
	cfg := telemetry.Config{Interval: sim.Microsecond, Probes: []string{"queue"}}
	if tp := telemetry.AttachFluid(s, &cfg, sim.Millisecond); tp != nil {
		t.Fatal("AttachFluid attached for packet-only probes")
	}
}

func TestWriteTraceJSONL(t *testing.T) {
	recs := []telemetry.TraceRecord{
		{AtUs: 1.5, Kind: "enq", Node: 3, Port: 1, Type: "DATA", Flow: 7, Seq: 4096, Size: 1000},
		{AtUs: 2.0, Kind: "rate", Node: 100, Type: "DATA", Flow: 7, RateBps: 5e9},
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTraceJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var back telemetry.TraceRecord
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatal(err)
	}
	if back != recs[0] {
		t.Fatalf("roundtrip mismatch: %+v != %+v", back, recs[0])
	}
	// Zero-valued optional fields stay off the wire.
	if strings.Contains(lines[0], "rate_bps") || strings.Contains(lines[1], "size") {
		t.Fatalf("omitempty fields serialized: %s / %s", lines[0], lines[1])
	}
}

func TestOutputSeriesCSV(t *testing.T) {
	r := telemetry.NewRecorder(10*sim.Microsecond, 4)
	q := r.AddColumn("sw0/p0/queue_bytes")
	for i := 1; i <= 3; i++ {
		row := r.Begin(sim.Time(10*i) * sim.Microsecond)
		row[q] = float64(1000 * i)
	}
	out := r.Output()
	if len(out.Series) != 1 {
		t.Fatalf("got %d series, want 1", len(out.Series))
	}
	csv := out.SeriesCSV(0)
	if !strings.HasPrefix(csv, "# sw0/p0/queue_bytes\ntime_us,value\n") {
		t.Fatalf("unexpected CSV header:\n%s", csv)
	}
	if !strings.Contains(csv, "20.000,2000.000") {
		t.Fatalf("CSV missing sample row:\n%s", csv)
	}
	if want := "# sw0/p0/queue_bytes\ntime_us,value\n10.000,1000.000\n20.000,2000.000\n30.000,3000.000\n"; csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestOutputJSONRoundTrip(t *testing.T) {
	r := telemetry.NewRecorder(sim.Microsecond, 4)
	a := r.AddColumn("a")
	row := r.Begin(sim.Microsecond)
	row[a] = 42
	out := r.Output()
	out.TraceTotal = 3
	out.Trace = []telemetry.TraceRecord{{AtUs: 1, Kind: "enq", Type: "DATA"}}
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Output
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Samples != 1 || back.SeriesByName("a").Values[0] != 42 ||
		back.TraceTotal != 3 || len(back.Trace) != 1 {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
}

// TestFlightRecorderCapturesTx: under its cap the recorder holds the whole
// stream from the first frame on, both directions.
func TestFlightRecorderCapturesTx(t *testing.T) {
	cfg := telemetry.Config{Interval: 5 * sim.Microsecond, TraceCap: 1 << 16}
	c, tp := chainProbe(t, exp.SchemeFNCC, cfg)
	c.Net.RunUntil(20 * sim.Microsecond)
	tp.Stop()
	out := tp.Output()
	if out.TraceTotal == 0 || out.TraceTotal != uint64(len(out.Trace)) {
		t.Fatalf("total %d, retained %d: nothing should be evicted under the cap",
			out.TraceTotal, len(out.Trace))
	}
	if first := out.Trace[0]; first.Type != "DATA" || first.Seq != 0 {
		t.Fatalf("first event is not a first data segment: %+v", first)
	}
	foundAck := false
	for i, r := range out.Trace {
		foundAck = foundAck || (r.Type == "ACK" && r.Kind == "tx")
		if i > 0 && r.AtUs < out.Trace[i-1].AtUs {
			t.Fatalf("event %d goes back in time", i)
		}
	}
	if !foundAck {
		t.Fatal("no ACK transmission recorded")
	}
}

// TestNetProbeStopDetachesTrace: after Stop the network has no trace sink
// and the recorder sees nothing more.
func TestNetProbeStopDetachesTrace(t *testing.T) {
	cfg := telemetry.Config{Interval: 5 * sim.Microsecond, TraceCap: 64}
	c, tp := chainProbe(t, exp.SchemeFNCC, cfg)
	c.Net.RunUntil(10 * sim.Microsecond)
	tp.Stop()
	if c.Net.Trace != nil {
		t.Fatal("Stop left the trace sink installed")
	}
	before := tp.Output().TraceTotal
	c.Net.RunUntil(20 * sim.Microsecond)
	if after := tp.Output().TraceTotal; after != before || before == 0 {
		t.Fatalf("recorder saw %d events before Stop and %d after", before, after)
	}
}

// watchIncast runs a 3-sender burst behind the last switch under two
// Watches at a 5 us interval with the given ring capacity: one on the
// last-hop port, the flows' pacing rates and the active count, folding every
// rate reduction; one on the flows' goodput. observe, when set, is called
// after both have written each row (a ticker of the same period registered
// after them fires after them).
func watchIncast(t testing.TB, capacity int, observe func(probes []*telemetry.NetProbe)) ([]*telemetry.NetProbe, []telemetry.Watch) {
	t.Helper()
	s, err := exp.NewScheme(exp.SchemeHPCC)
	if err != nil {
		t.Fatal(err)
	}
	opts := topo.DefaultChainOpts(3)
	for i := range opts.SenderAttach {
		opts.SenderAttach[i] = opts.Switches - 1
	}
	c, err := topo.BuildChain(netsim.DefaultConfig(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	flows := []*netsim.Flow{c.AddFlow(1, 0, 300_000, 0),
		c.AddFlow(2, 1, 200_000, 10*sim.Microsecond), c.AddFlow(3, 2, 400_000, 20*sim.Microsecond)}
	const period, from = 5 * sim.Microsecond, 20 * sim.Microsecond
	below := 0.5 * float64(opts.RateBps)
	watches := []telemetry.Watch{
		{Interval: period, Port: c.HopPort(opts.Switches - 1), Flows: flows, Active: true,
			Reductions: []telemetry.Reduction{
				{Metric: "peak", Reduce: telemetry.ReduceMax, N: 1},
				{Metric: "util", Reduce: telemetry.ReduceMean, Col: 1, N: 1, From: from},
				{Metric: "slow", Reduce: telemetry.ReduceFirstBelow, Col: 2, N: 1, Below: below},
				{Metric: "delay", Reduce: telemetry.ReduceDelayBelow, Col: 2, N: 1, From: from, Below: below},
				{Metric: "jain_min", Reduce: telemetry.ReduceMinJain, Col: 2, N: 4, From: c.Net.Cfg.BaseRTT}}},
		{Interval: period, Flows: flows, Goodput: true, Reductions: []telemetry.Reduction{
			{Metric: "jain", Reduce: telemetry.ReduceMeanJain, N: 3, From: from, To: 10 * from}}},
	}
	var probes []*telemetry.NetProbe
	for _, w := range watches {
		probes = append(probes, telemetry.AttachWatch(c.Net, w, capacity))
	}
	c.Net.GlobalTicker(period, func() {
		if observe != nil {
			observe(probes)
		}
	})
	if !c.Net.RunToCompletion(10 * sim.Millisecond) {
		t.Fatal("the burst did not finish")
	}
	for _, p := range probes {
		p.Stop()
	}
	return probes, watches
}

// TestWatchFoldIgnoresRingSize: at ring capacity 1 the reductions see, row
// by row, exactly the values a ring that keeps every row records, and fold
// them into the same metrics, bit for bit.
func TestWatchFoldIgnoresRingSize(t *testing.T) {
	full, fullW := watchIncast(t, 1<<12, nil)
	seen := make([][]*telemetry.Output, 2)
	_, oneW := watchIncast(t, 1, func(probes []*telemetry.NetProbe) {
		for i, p := range probes {
			seen[i] = append(seen[i], p.Output())
		}
	})
	for i, p := range full {
		out := p.Output()
		if out.Samples != len(out.TimesUs) || len(seen[i]) != out.Samples || out.Samples < 20 {
			t.Fatalf("watch %d: %d samples, %d kept, %d seen at capacity 1", i, out.Samples, len(out.TimesUs), len(seen[i]))
		}
		for k, row := range seen[i] {
			if row.TimesUs[0] != out.TimesUs[k] {
				t.Fatalf("watch %d row %d: at %v us, full ring has %v us", i, k, row.TimesUs[0], out.TimesUs[k])
			}
			for c, s := range out.Series {
				if got := row.Series[c].Values[0]; math.Float64bits(got) != math.Float64bits(s.Values[k]) {
					t.Fatalf("watch %d row %d %s: %v at capacity 1, %v in the full ring", i, k, s.Name, got, s.Values[k])
				}
			}
		}
		for r, red := range fullW[i].Reductions {
			if got := oneW[i].Reductions[r].Value; math.Float64bits(got) != math.Float64bits(red.Value) {
				t.Errorf("%s: %v at capacity 1, %v with every row kept", red.Metric, got, red.Value)
			}
		}
	}
	// Every reduction read rows that moved it off its no-row value.
	for _, r := range append(fullW[0].Reductions, fullW[1].Reductions...) {
		if r.Value == 0 || r.Value == -1 || r.Value == 1 {
			t.Errorf("%s reads %v: the run never exercised it", r.Metric, r.Value)
		}
	}
	want := [][]string{{"sw2/p1/queue_bytes"}, {"sw2/p1/util"}, {"flow1/rate_bps"}, {"flow1/rate_bps"},
		{"flow1/rate_bps", "flow2/rate_bps", "flow3/rate_bps", "active_flows"}}
	for i, r := range full[0].Output().Reductions {
		if !slices.Equal(r.Series, want[i]) {
			t.Errorf("%s reads %v, want %v", r.Metric, r.Series, want[i])
		}
	}
	if r := full[1].Output().Reductions[0]; !slices.Equal(r.Series, []string{"flow1/goodput_bps", "flow2/goodput_bps", "flow3/goodput_bps"}) {
		t.Errorf("%s reads %v", r.Metric, r.Series)
	}
}

// TestWatchSteadyStateZeroAlloc: a Watch's ticks — the row and every
// reduction folded over it — allocate nothing once the run is warm.
func TestWatchSteadyStateZeroAlloc(t *testing.T) {
	s, err := exp.NewScheme(exp.SchemeFNCC)
	if err != nil {
		t.Fatal(err)
	}
	opts := topo.DefaultChainOpts(2)
	c, err := topo.BuildChain(netsim.DefaultConfig(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	flows := []*netsim.Flow{c.AddFlow(1, 0, 1<<30, 0), c.AddFlow(2, 1, 1<<30, 0)}
	rates := telemetry.Watch{Interval: sim.Microsecond, Port: c.BottleneckPort(), Flows: flows, Active: true,
		Reductions: []telemetry.Reduction{
			{Metric: "peak", Reduce: telemetry.ReduceMax, N: 1},
			{Metric: "util", Reduce: telemetry.ReduceMean, Col: 1, N: 1},
			{Metric: "slow", Reduce: telemetry.ReduceDelayBelow, Col: 2, N: 1, Below: 1},
			{Metric: "jain_min", Reduce: telemetry.ReduceMinJain, Col: 2, N: 3}}}
	goodput := telemetry.Watch{Interval: sim.Microsecond, Flows: flows, Goodput: true,
		Reductions: []telemetry.Reduction{{Metric: "jain", Reduce: telemetry.ReduceMeanJain, N: 2}}}
	for _, w := range []telemetry.Watch{rates, goodput} {
		defer telemetry.AttachWatch(c.Net, w, 4).Stop()
	}
	deadline := 100 * sim.Microsecond
	c.Net.RunUntil(deadline) // warm-up: pools filled, rings allocated
	avg := testing.AllocsPerRun(10, func() {
		deadline += 50 * sim.Microsecond
		c.Net.RunUntil(deadline)
	})
	if avg != 0 {
		t.Fatalf("steady-state watch ticks allocate %.1f objects per 50us slice", avg)
	}
}
