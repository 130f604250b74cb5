package fluid

import (
	"math/rand"
	"testing"

	"repro/internal/benchpair"
	"repro/internal/sim"
	"repro/internal/workload"
)

// largeActiveSim builds the datacenter-scale workload for the incremental
// speedup pair: a k=16 fat-tree (1024 hosts, 6144 links) carrying 50k+
// concurrent flows — a rack-local elephant floor arriving in one opening
// batch plus a stream of staggered cross-fabric mice whose arrivals and
// finishes are the events under measurement (datacenter traces put most
// bytes rack-local, with a latency-sensitive cross-fabric foreground).
// This is the regime incremental recomputation is built for: an event's
// level changes stay inside the racks it touches — racks couple only
// through the transient mice, whose per-hop amplitude decay (one shared
// flow in ~40 occupants) kills the wave below the precision contract
// within a hop — and the unsaturated aggregation/core layer does not
// carry levels across the fabric at all. Deterministic per the fixed seed.
func largeActiveSim(tb testing.TB) *Sim {
	tb.Helper()
	const (
		elephants = 50_000
		mice      = 1_024
		rackHosts = 8 // k/2 hosts per edge switch at k=16
	)
	fb, err := NewFatTree(DefaultConfig(), FatTreeOpts{
		K: 16, RateBps: 100e9, Delay: 1500 * sim.Nanosecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20240716))
	s := NewSim(fb, Instant())
	// Interactive-scale precision contract, identical for both engine
	// variants: rate changes below 0.1% relative do not propagate — far
	// below the fluid model's own 5-15% cross-validation error against the
	// packet engine. On a fabric this loaded the exact fixed point moves
	// globally by tiny amounts on every event; the contract is what makes
	// "affected" a local notion (see DESIGN.md).
	s.Tolerance = 1e-3
	id := uint64(1)
	add := func(src, dst int, size int64, start sim.Time) {
		if _, err := s.AddFlow(id, src, dst, size, start); err != nil {
			tb.Fatal(err)
		}
		id++
	}
	for i := 0; i < elephants; i++ {
		src := rng.Intn(fb.Hosts)
		rack := src - src%rackHosts
		dst := rack + (src-rack+1+rng.Intn(rackHosts-1))%rackHosts
		add(src, dst, int64(16<<20+rng.Intn(48<<20)), 0)
	}
	for i := 0; i < mice; i++ {
		src := rng.Intn(fb.Hosts)
		dst := (src + 1 + rng.Intn(fb.Hosts-1)) % fb.Hosts
		add(src, dst, int64(32<<10+rng.Intn(224<<10)), sim.Time(rng.Intn(500))*sim.Microsecond)
	}
	return s
}

const largeActiveDeadline = 3 * sim.Millisecond

// BenchmarkFluidIncrementalSpeedup pairs the 50k-concurrent-flow point with
// the incremental path disabled — the pre-incremental engine's cost model —
// against the incremental engine, where every mouse arrival/finish relaxes
// only the bottleneck-dependency closure of its path instead of re-solving
// the global allocation. CI floors its ratio at 5.
func BenchmarkFluidIncrementalSpeedup(b *testing.B) {
	benchFullPass(b, largeActiveSim, largeActiveDeadline, func(res *Result) {
		if res.Stats.MaxActive < 50_000 {
			b.Fatalf("max active %d, want >= 50000", res.Stats.MaxActive)
		}
		if res.Completed < 500 {
			b.Fatalf("only %d finishes; the bench must exercise steady-state events", res.Completed)
		}
	})
}

// benchFullPass pairs ForceFullPass against the incremental engine, each
// side running a sim of its own that build made before the pairs started,
// until deadline; check vets every run. Each side reports its solver
// counters, the full pass's under a "full_" prefix.
func benchFullPass(b *testing.B, build func(testing.TB) *Sim, deadline sim.Time, check func(*Result)) {
	var inc, full Stats // each side's last run
	side := func(forceFull bool, st *Stats) func() {
		sims := make([]*Sim, b.N)
		for i := range sims {
			sims[i] = build(b)
			sims[i].ForceFullPass = forceFull
		}
		return func() {
			s := sims[0]
			sims[0], sims = nil, sims[1:]
			res := s.Run(deadline)
			check(res)
			*st = res.Stats
		}
	}
	benchpair.Ratio(b, side(true, &full), side(false, &inc))
	reportStats(b, inc, false)
	reportStats(b, full, true)
}

// reportStats reports a run's solver counters per event: the diagnostics
// that explain a change in the pair's ratio. A full pass has no per-link
// counters, and reports under a "full_" prefix.
func reportStats(b *testing.B, st Stats, forceFull bool) {
	ev := float64(st.Events)
	if forceFull {
		b.ReportMetric(ev, "full_events")
		b.ReportMetric(float64(st.FlowsTouched)/ev, "full_flows/event")
		return
	}
	b.ReportMetric(ev, "events")
	b.ReportMetric(float64(st.FlowsTouched)/ev, "flows/event")
	b.ReportMetric(float64(st.LinksTouched)/ev, "links/event")
	b.ReportMetric(float64(st.LinkSolves)/ev, "solves/event")
	b.ReportMetric(float64(st.SolvesSkipped)/ev, "skipped/event")
}

// sparseSim builds the regime scenario sweeps live in and the 50k-flow point
// does not cover: the k=16 WebSearch FCT point (load 0.5, 1500 us of
// Poisson arrivals, seed 1, FNCC's convergence model, default tolerance).
// A few hundred flows are active at a time on 6144 links, so most links an
// event pops are unsaturated and stay so — per-event cost here is worklist
// bookkeeping and link solves, not the size of any occupant list.
func sparseSim(tb testing.TB) *Sim {
	tb.Helper()
	fb, err := NewFatTree(DefaultConfig(), FatTreeOpts{
		K: 16, RateBps: 100e9, Delay: 1500 * sim.Nanosecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	model, err := ModelFor("FNCC", fb.BaseRTT)
	if err != nil {
		tb.Fatal(err)
	}
	flows, err := workload.Generate(workload.GenConfig{
		Hosts: fb.Hosts, AccessBps: fb.AccessBps, Load: 0.5, CDF: workload.WebSearch(),
		Horizon: sparseHorizon, Seed: 1, FirstID: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewSim(fb, model)
	for _, fs := range flows {
		if _, err := s.AddFlow(fs.ID, fs.SrcHost, fs.DstHost, fs.SizeBytes, fs.Start); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

const sparseHorizon = 1500 * sim.Microsecond

// BenchmarkFluidSparseSpeedup pairs the sparse point with every event a
// global pass against the incremental engine. CI floors its ratio at 35.
func BenchmarkFluidSparseSpeedup(b *testing.B) {
	// Horizon + 10x drain, like scenario's FCT runs.
	benchFullPass(b, sparseSim, 11*sparseHorizon, func(res *Result) {
		if res.Completed != res.Generated {
			b.Fatalf("completed %d of %d", res.Completed, res.Generated)
		}
	})
}
