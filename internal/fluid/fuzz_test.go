package fluid

import (
	"testing"

	"repro/internal/sim"
)

// FuzzIncrementalWaterfill drives random flow sets (sizes, starts, host
// pairs) over fat-tree and chain fabrics with the differential checker
// armed: every event's incremental targets are compared against the
// full-pass fixed point at 1e-9 relative, every link solve (and every
// skipped solve) against the path-walking reference bit for bit, and every
// cached path minimum and offered load against a recount; any divergence
// panics, as does any full pass or replay whose fill differs in one bit from
// the two-pass reference fill. The fuzzer explores the seed/shape space; the
// checkers are the oracle. shape picks the fabric (k=4 fat-tree, chain, a
// k=8 fat-tree whose 6-hop paths cross mostly unsaturated links, or a k=4
// fat-tree carrying waves of a symmetric permutation, whose links saturate
// in ties); oversub divides the core rate by 1, 2 or 4 so capacities are
// non-uniform along a path.
func FuzzIncrementalWaterfill(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(40), uint8(0), uint8(1), true)
	f.Add(int64(3), uint8(96), uint8(1), uint8(0), false)
	f.Add(int64(4), uint8(64), uint8(1), uint8(0), true)
	f.Add(int64(5), uint8(95), uint8(2), uint8(2), false)
	f.Add(int64(6), uint8(30), uint8(2), uint8(1), true)
	f.Add(int64(1<<40), uint8(255), uint8(0), uint8(2), true)
	f.Add(int64(7), uint8(46), uint8(3), uint8(0), false)
	f.Add(int64(8), uint8(47), uint8(3), uint8(2), true)

	f.Fuzz(func(t *testing.T, seed int64, n, shape, oversub uint8, lagged bool) {
		flows := 2 + int(n)%96
		model := Instant()
		if lagged {
			model = Model{Tau: 20 * sim.Microsecond}
		}
		sh := simShape{coreDiv: 1 << (oversub % 3)}
		switch shape % 4 {
		case 1:
			sh.chain = true
		case 2:
			sh.k = 8
		case 3:
			sh.permutation = true
		}
		s := randomFlowSim(t, seed, flows, sh, model)
		s.Differential = true
		res := s.Run(sim.Second)
		if res.Completed != res.Generated {
			t.Fatalf("only %d/%d flows completed within a generous deadline",
				res.Completed, res.Generated)
		}
		if got := res.Stats.Recomputes + res.Stats.IncrementalPasses; got != res.Stats.Events {
			t.Fatalf("pass accounting broken: %d full + %d incremental != %d events",
				res.Stats.Recomputes, res.Stats.IncrementalPasses, res.Stats.Events)
		}
	})
}
