package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

const (
	// setups is how many times a run sets the workload up; setup_s is the
	// median, which leaves out the first one's process-wide lazy start-up.
	setups = 3
	// minRepeats timed repeats are made however short --seconds is.
	minRepeats = 3
)

// checker counts points attempted and failed over a run. A point fails on
// its own error, on impossible flow accounting, or when its digest differs
// from the first repeat's or, at the golden seed, from the committed one.
type checker struct {
	w         workloadDef
	gold      map[string]string // nil unless the run is at goldenSeed
	update    golden            // set when rewriting golden digests
	first     []string          // digests of the first repeat checked
	attempted int
	failed    int
	reasons   []string
}

func newChecker(w workloadDef, seed int64, g golden, update bool) *checker {
	c := &checker{w: w}
	switch {
	case update:
		c.update = g
	case seed == goldenSeed:
		c.gold = g[w.name]
		if c.gold == nil {
			c.gold = map[string]string{} // every point then fails as unpinned
		}
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.reasons) < 8 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// repeat checks the points of one repeat.
func (c *checker) repeat(points []pointResult) {
	digests := make([]string, len(points))
	for i, p := range points {
		c.attempted++
		digests[i] = digest(p.metrics)
		gen, done := p.metrics["generated"], p.metrics["completed"]
		switch {
		case p.fail != "":
			c.fail("%s: %s", p.name, p.fail)
		case done > gen || (gen > 0 && done == 0):
			c.fail("%s: completed %v of %v generated flows", p.name, done, gen)
		case c.first != nil && (i >= len(c.first) || digests[i] != c.first[i]):
			c.fail("%s: digest differs from the first repeat's", p.name)
		case c.gold != nil && !c.w.combined && digests[i] != c.gold[p.name]:
			c.fail("%s: digest %.12s differs from golden %.12s", p.name, digests[i], c.gold[p.name])
		}
	}
	if c.first != nil {
		return
	}
	c.first = digests
	if c.w.combined {
		if all := combine(digests); c.gold != nil && all != c.gold["*"] {
			c.fail("grid digest %.12s differs from golden %.12s", all, c.gold["*"])
		}
	}
	if c.update != nil {
		pins := map[string]string{}
		if c.w.combined {
			pins["*"] = combine(digests)
		} else {
			for i, p := range points {
				pins[p.name] = digests[i]
			}
		}
		c.update[c.w.name] = pins
	}
}

// cross counts one cross-mode check (serial vs sharded, cold vs warm vs
// served) as one more point.
func (c *checker) cross(in *instance, first []pointResult) {
	if in.verify == nil {
		return
	}
	c.attempted++
	if reasons := in.verify(first); len(reasons) > 0 {
		c.failed++
		c.reasons = append(c.reasons, reasons...)
	}
}

// run is one invocation: a workload, a seed and a time budget.
type run struct {
	w       workloadDef
	seed    int64
	seconds float64
	env     *env
	outDir  string
	check   *checker
}

// setUp builds the workload's inputs from the seed and runs the untimed
// warm-up repeat; both are what setup_s times.
func (r *run) setUp() (*instance, error) {
	in, err := r.w.setup(r.env, r.seed)
	if err != nil {
		return nil, err
	}
	if _, _, err := in.runBody(nil); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

func events(points []pointResult) float64 {
	var n float64
	for _, p := range points {
		n += p.metrics["engine_events"]
	}
	return n
}

// endToEnd is the untraced run: set up, repeat the body for the time
// budget, verify, and report medians over the timed repeats.
func (r *run) endToEnd() (record, error) {
	samples := map[string][]float64{}
	host := newSpeedometer()
	var in *instance
	for i := 0; i < setups; i++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = r.setUp(); err != nil {
			return record{}, err
		}
		wall := time.Since(t0).Seconds()
		samples["setup_raw_s"] = append(samples["setup_raw_s"], wall)
		samples["setup_s"] = append(samples["setup_s"], wall*host.speed())
	}
	defer in.close()

	var first []pointResult
	start := time.Now()
	for n := 0; n < minRepeats || time.Since(start).Seconds() < r.seconds; n++ {
		points, c, err := in.runBody(nil)
		if err != nil {
			return record{}, fmt.Errorf("repeat %d: %w", n+1, err)
		}
		speed := host.speed()
		r.check.repeat(points)
		if first == nil {
			first = points
		}
		ev := events(points)
		if ev == 0 {
			return record{}, fmt.Errorf("repeat %d simulated no events", n+1)
		}
		for name, v := range map[string]float64{"wall_s": c.Wall, "cpu_s": c.CPU, "allocs": c.Allocs, "events": ev,
			"wall_ns_per_event": c.Wall * 1e9 / ev, "cpu_ns_per_event": c.CPU * 1e9 / ev,
			"norm_wall_ns_per_event": c.Wall * 1e9 / ev * speed, "norm_cpu_ns_per_event": c.CPU * 1e9 / ev * speed,
			"host_speed": speed} {
			samples[name] = append(samples[name], v)
		}
	}
	r.check.cross(in, first)
	_, rss := rusage()
	samples["peak_rss_mb"] = []float64{rss}

	rec := r.record(false)
	rec.Samples = map[string]summary{}
	for name, v := range samples {
		rec.Samples[name] = summarize(v)
		rec.Metrics[name] = rec.Samples[name].Median
	}
	r.report(&rec, endToEnd)
	return rec, nil
}

func (r *run) record(traced bool) record {
	return record{Machine: fingerprint(), Workload: r.w.name, Seed: r.seed, Trace: traced,
		Metrics: map[string]float64{}}
}

// report prints the human-readable part: conventions, the machine, every
// metric with its unit and, for timings, the spread of its samples.
func (r *run) report(rec *record, defs []metricDef) {
	rec.Correct, rec.Attempted, rec.Failed = r.check.failed == 0, r.check.attempted, r.check.failed
	m := rec.Machine
	fmt.Printf("workload %s  seed %d  trace %v\n", rec.Workload, rec.Seed, rec.Trace)
	fmt.Printf("why: %s\n", r.w.why)
	fmt.Printf("machine: %s, %d cores, GOMAXPROCS %d, %s, commit %s\n", m.CPU, m.Cores, m.GOMAXPROCS, m.Go, m.Commit)
	fmt.Println("conventions: host time unless a name says sim; closed loop, one client issuing points back to back")
	fmt.Println("  (sweeps: a 2-worker pool; sweep-served: one submit + one NDJSON stream over an in-process loopback")
	fmt.Println("  server, not a real link); an event is one engine_events count of the repeat's results; setup_s and norm")
	fmt.Println("  times are scaled by host_speed, the calibration loop's quiet-host time over its time around them; every")
	fmt.Println("  timing is the median of the timed repeats, printed with n, min, quartiles and max (so few samples")
	fmt.Println("  support no higher percentile); the fluid model is checked against the packet engine only, never hardware.")
	fmt.Printf("%-36s %14s %-6s  %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		line := fmt.Sprintf("%-36s %14.6g %-6s", d.Name, rec.Metrics[d.Name], d.Unit)
		if s, ok := rec.Samples[d.Name]; ok && s.N > 1 {
			line += fmt.Sprintf("  n=%d min=%.6g q1=%.6g q3=%.6g max=%.6g", s.N, s.Min, s.Q1, s.Q3, s.Max)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf("  bound=%.2f", d.Bound)
		}
		fmt.Println(line)
	}
	for _, name := range []string{"setup_raw_s", "wall_s", "cpu_s", "events", "wall_ns_per_event", "cpu_ns_per_event", "host_speed"} {
		if s, ok := rec.Samples[name]; ok {
			fmt.Printf("  unbounded %-18s median=%.6g n=%d min=%.6g max=%.6g\n", name, s.Median, s.N, s.Min, s.Max)
		}
	}
	if rss, ok := rec.Metrics["peak_rss_mb"]; ok {
		fmt.Printf("  peak_rss_mb %.6g MB (ru_maxrss at the end of the run)\n", rss)
	}
	share := 0.0
	if r.check.attempted > 0 {
		share = float64(r.check.failed) / float64(r.check.attempted)
	}
	fmt.Printf("failed_share %.6g (%d failed of %d points attempted)\n", share, r.check.failed, r.check.attempted)
	for _, why := range r.check.reasons {
		fmt.Println("  FAILED:", why)
	}
}

// traced is the per-layer run: rounds of one untraced and one traced
// repeat, the traced one under a CPU profile and with spans, then the
// workload's paired measurements and the layer loops.
func (r *run) traced() (record, error) {
	in, err := r.setUp()
	if err != nil {
		return record{}, err
	}
	defer in.close()

	tr := newTracer()
	var (
		plain, withTrace cost
		rounds           int
		plainEvents      float64
		cpuByLayer       = map[string]float64{}
		lastProfile      []byte
		first            []pointResult
	)
	// Half the budget goes to the rounds; the paired measurements and the
	// layer loops take the rest.
	for start := time.Now(); rounds == 0 || time.Since(start).Seconds() < r.seconds/2; rounds++ {
		points, c, err := in.runBody(nil)
		if err != nil {
			return record{}, err
		}
		r.check.repeat(points)
		if first == nil {
			first = points
		}
		plain.add(c)
		plainEvents += events(points)

		tr.startRepeat(fmt.Sprintf("%s#%d", r.w.name, rounds+1))
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return record{}, err
		}
		points, c, err = in.runBody(tr)
		pprof.StopCPUProfile()
		if err != nil {
			return record{}, err
		}
		r.check.repeat(points) // staged mirror vs scenario.Run, among the rest
		withTrace.add(c)
		lastProfile = prof.Bytes()
		folded, err := foldProfile(lastProfile)
		if err != nil {
			return record{}, fmt.Errorf("cpu profile: %w", err)
		}
		for layer, ns := range folded {
			cpuByLayer[layer] += ns
		}
	}
	r.check.cross(in, first)

	rec := r.record(true)
	m := rec.Metrics
	n := float64(rounds)
	cpuShares(m, cpuByLayer)
	spanMetrics(m, tr, n)
	m["runtime.gc_cycles"] = withTrace.GCs / n
	m["bench.wall_s"] = plain.Wall / n
	m["bench.cpu_s"] = plain.CPU / n
	m["bench.events"] = plainEvents / n
	_, m["bench.peak_rss_mb"] = rusage()
	m["bench.trace_overhead_ratio"] = withTrace.Wall / plain.Wall // base: the untraced repeats of this run
	if m["netsim.run_s"] > 0 || m["fluid.run_s"] > 0 {
		m["exp.envelope_ratio"] = plain.Wall / withTrace.Wall // base: the staged mirror's wall
	}
	if r.w.paired != nil {
		if err := r.w.paired(r, m, withTrace); err != nil {
			return record{}, err
		}
	}
	if err := layerLoops(m); err != nil {
		return record{}, err
	}

	if err := tr.writeChrome(filepath.Join(r.outDir, r.w.name+".trace.json")); err != nil {
		return record{}, err
	}
	if err := os.WriteFile(filepath.Join(r.outDir, r.w.name+".cpu.pprof"), lastProfile, 0o644); err != nil {
		return record{}, err
	}
	r.report(&rec, perLayer)
	fmt.Println("self time per span name (s, summed over the traced repeats):")
	self := tr.selfSeconds()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names[:min(len(names), 12)] {
		fmt.Printf("  %-32s %.6f\n", name, self[name])
	}
	return rec, nil
}

func (c *cost) add(o cost) {
	c.Wall += o.Wall
	c.CPU += o.CPU
	c.Allocs += o.Allocs
	c.GCs += o.GCs
}

// cpuShares turns CPU nanoseconds per layer into shares that sum to 1;
// layers outside cpuLayers fold into runtime.other.
func cpuShares(m map[string]float64, byLayer map[string]float64) {
	total := 0.0
	for _, ns := range byLayer {
		total += ns
	}
	if total == 0 {
		return
	}
	listed := 0.0
	for _, l := range cpuLayers {
		m[l+".cpu_share"] = byLayer[l] / total
		listed += byLayer[l]
	}
	m["runtime.gc_cpu_share"] = byLayer["runtime.gc"] / total
	m["runtime.other_cpu_share"] = (total - listed - byLayer["runtime.gc"]) / total
}

// spanMetrics derives the per-layer times and counts of one traced repeat:
// span seconds are means over the n traced repeats, counters are the last
// repeat's (they repeat exactly).
func spanMetrics(m map[string]float64, tr *tracer, n float64) {
	sec := func(name string) float64 { return tr.seconds(name) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := tr.counts
	for _, name := range []string{"sim.events", "packet.pool_gets", "netsim.shard_windows", "netsim.shard_messages",
		"netsim.pause_frames", "netsim.drops", "workload.flows", "metrics.records", "topo.hosts", "topo.switches",
		"fluid.events", "harness.cache_hits", "harness.cache_misses", "harness.coalesced"} {
		m[name] = c[name]
	}
	m["sim.reuse_rate"] = ratio(c["sim.slot_reuses"], c["sim.scheduled"])
	m["packet.pool_hit_rate"] = ratio(c["packet.pool_gets"]-c["packet.pool_news"], c["packet.pool_gets"])
	m["netsim.shard_events_per_window"] = ratio(c["sim.events"], c["netsim.shard_windows"])
	m["fluid.full_pass_share"] = ratio(c["fluid.full_passes"], c["fluid.events"])
	m["fluid.links_touched_per_event"] = ratio(c["fluid.links_touched"], c["fluid.events"])
	m["fluid.flows_touched_per_event"] = ratio(c["fluid.flows_touched"], c["fluid.events"])
	m["fluid.heap_invalidations_per_event"] = ratio(c["fluid.heap_invalidations"], c["fluid.events"])

	m["exp.scheme_build_s"] = sec("exp.NewScheme")
	m["topo.build_fattree_s"] = sec("topo.BuildFatTree")
	m["workload.generate_s"] = sec("workload.Generate")
	m["metrics.summarize_s"] = sec("FCTCollector.SlowdownDist")
	m["netsim.inject_s"] = sec("FatTree.AddFlow")
	m["netsim.run_s"] = sec("Network.RunToCompletion")
	m["netsim.ns_per_event"] = ratio(m["netsim.run_s"]*1e9, c["sim.events"])
	m["fluid.build_s"] = sec("fluid.NewFatTree") + sec("fluid.NewSim")
	m["fluid.inject_s"] = sec("Sim.AddFlow")
	m["fluid.run_s"] = sec("Sim.Run")
	m["fluid.us_per_event"] = ratio(m["fluid.run_s"]*1e6, c["fluid.events"])
	for _, p := range []string{"fluid.websearch_k16", "fluid.hadoop_k8", "fluid.permutation_k32"} {
		m[p+"_s"] = sec(p)
	}
}
