package fluid

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// largeActiveSim builds the datacenter-scale workload for the incremental
// benchmarks: a k=16 fat-tree (1024 hosts, 6144 links) carrying 50k+
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

// BenchmarkFluidLargeActive measures the incremental engine on the
// 50k-concurrent-flow point: every mouse arrival/finish relaxes only the
// bottleneck-dependency closure of its path instead of re-solving the
// global allocation.
func BenchmarkFluidLargeActive(b *testing.B) {
	benchLargeActive(b, false)
}

// BenchmarkFluidLargeActiveFullPass is the same workload with the
// incremental path disabled — the pre-incremental engine's cost model, and
// the denominator of the fluid_incremental_speedup CI ratio.
func BenchmarkFluidLargeActiveFullPass(b *testing.B) {
	benchLargeActive(b, true)
}

func benchLargeActive(b *testing.B, forceFull bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := largeActiveSim(b)
		s.ForceFullPass = forceFull
		b.StartTimer()
		res := s.Run(largeActiveDeadline)
		b.StopTimer()
		if res.Stats.MaxActive < 50_000 {
			b.Fatalf("max active %d, want >= 50000", res.Stats.MaxActive)
		}
		if res.Completed < 500 {
			b.Fatalf("only %d finishes; the bench must exercise steady-state events", res.Completed)
		}
		if i == 0 {
			reportStats(b, res.Stats, forceFull)
		}
		b.StartTimer()
	}
}

func reportStats(b *testing.B, st Stats, forceFull bool) {
	ev := float64(st.Events)
	b.ReportMetric(ev, "events")
	b.ReportMetric(float64(st.FlowsTouched)/ev, "flows/event")
	if !forceFull {
		b.ReportMetric(float64(st.LinksTouched)/ev, "links/event")
		b.ReportMetric(float64(st.LinkSolves)/ev, "solves/event")
		b.ReportMetric(float64(st.SolvesSkipped)/ev, "skipped/event")
	}
}

// sparseSim builds the regime scenario sweeps live in and the LargeActive
// pair does not cover: the k=16 WebSearch FCT point (load 0.5, 1500 us of
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

// BenchmarkFluidSparse measures the incremental engine on the sparse point.
func BenchmarkFluidSparse(b *testing.B) { benchSparse(b, false) }

// BenchmarkFluidSparseFullPass is the same point with every event a global
// pass — the denominator of the fluid_sparse_speedup CI ratio.
func BenchmarkFluidSparseFullPass(b *testing.B) { benchSparse(b, true) }

func benchSparse(b *testing.B, forceFull bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := sparseSim(b)
		s.ForceFullPass = forceFull
		b.StartTimer()
		res := s.Run(11 * sparseHorizon) // horizon + 10x drain, like scenario's FCT runs
		b.StopTimer()
		if res.Completed != res.Generated {
			b.Fatalf("completed %d of %d", res.Completed, res.Generated)
		}
		if i == 0 {
			reportStats(b, res.Stats, forceFull)
		}
		b.StartTimer()
	}
}
