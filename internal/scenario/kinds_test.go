package scenario

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// rowKnobs sets each knob of a kindRow to a valid value that is no kind's
// default, keyed by the knob's name.
var rowKnobs = map[string]func(*Spec){
	"topo.kind": func(s *Spec) {
		if rowOf(s.Kind).def.Topo.Kind == "chain" {
			s.Topo.Kind = "fattree"
		} else {
			s.Topo.Kind = "chain"
		}
	},
	"seed":                    func(s *Spec) { s.Seed = 2 },
	"load":                    func(s *Spec) { s.Load = 0.7 },
	"hop":                     func(s *Spec) { s.Hop = "first" },
	"topo.senders":            func(s *Spec) { s.Topo.Senders = 3 },
	"topo.k":                  func(s *Spec) { s.Topo.K = 6 },
	"topo.switches":           func(s *Spec) { s.Topo.Switches = 5 },
	"topo.oversub":            func(s *Spec) { s.Topo.Oversub = 2 },
	"workload.cdf":            func(s *Spec) { s.Workload.CDF = "hadoop" },
	"workload.flow_bytes":     func(s *Spec) { s.Workload.FlowBytes = 50_000 },
	"workload.fanout":         func(s *Spec) { s.Workload.Fanout = 4 },
	"workload.shift":          func(s *Spec) { s.Workload.Shift = 3 },
	"workload.stagger_us":     func(s *Spec) { s.Workload.StaggerUs = 200 },
	"workload.burst_every_us": func(s *Spec) { s.Workload.BurstEveryUs = 200 },
	"duration_us":             func(s *Spec) { s.DurationUs = 10 },
	"topo.delay_ns":           func(s *Spec) { s.Topo.DelayNs = 1000 },
	"topo.rate_gbps":          func(s *Spec) { s.Topo.RateGbps = 200 },
}

// rowBase is a short run of each kind, with every free knob left where
// rowKnobs moves it somewhere else. Permutation and alltoall queue enough for
// DCQCN's WRED to draw from the seed.
func rowBase(kind string) Spec {
	sp := Spec{Kind: kind, Scheme: "FNCC"}
	switch kind {
	case KindMicro:
		sp.DurationUs = 400
	case KindFairness:
		sp.Workload.StaggerUs = 50
	case KindFCT:
		sp.Topo.K, sp.DurationUs = 4, 100
	case KindIncast:
		sp.Workload.FlowBytes = 20_000
	case KindPermutation:
		sp.Topo.K, sp.Workload.FlowBytes = 4, 200_000
	case KindAllToAll:
		sp.Workload.FlowBytes = 20_000
	case KindMixed:
		sp.DurationUs = 1000
	}
	return sp
}

// TestKindRowsMatchRunners: a kind's row says which knobs a spec may set.
// Each free knob, moved to another valid value, changes the flow set or the
// metrics of a short run, so no free knob is one the runner ignores; each
// fixed knob, moved off its default, is refused by an error naming the knob
// and its fixed value.
func TestKindRowsMatchRunners(t *testing.T) {
	if len(rowKnobs) != len(knobTable) {
		t.Fatalf("rowKnobs sets %d knobs, knobTable has %d", len(rowKnobs), len(knobTable))
	}
	// On the fluid backend nothing reads the seed of permutation and
	// alltoall, yet their rows leave it free (see kindRows): pinned unread
	// here.
	unreadOnFluid := map[string]bool{KindPermutation + " seed": true, KindAllToAll + " seed": true}
	for i := range kindRows {
		r := &kindRows[i]
		backends := []string{BackendPacket}
		if r.fluid {
			backends = append(backends, BackendFluid)
		}
		for _, backend := range backends {
			t.Run(r.def.Kind+"/"+backend, func(t *testing.T) {
				t.Parallel()
				base := rowBase(r.def.Kind)
				base.Backend = backend
				baseRuns := map[string]map[string]float64{} // by scheme
				for bit, k := range knobTable {
					name := k.name
					v := base
					rowKnobs[name](&v)
					err := v.Validate()
					if !r.free.has(1 << bit) {
						want := fmt.Sprintf("fixes %s at %#v;", name, k.of(&r.def))
						if err == nil || !strings.Contains(err.Error(), want) {
							t.Errorf("%s = %+v: got %v, want an error with %q", name, v, err, want)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					b := base
					if name == "seed" && backend == BackendPacket && in(r.def.Kind, KindPermutation, KindAllToAll) {
						// On packet permutation and alltoall only DCQCN's
						// WRED draws from the seed.
						b.Scheme, v.Scheme = "DCQCN", "DCQCN"
					}
					read := changes(t, b, v, func() map[string]float64 {
						if baseRuns[b.Scheme] == nil {
							baseRuns[b.Scheme] = mustRun(t, b).Metrics
						}
						return baseRuns[b.Scheme]
					})
					if want := !(backend == BackendFluid && unreadOnFluid[r.def.Kind+" "+name]); read != want {
						t.Errorf("%s read = %v, want %v", name, read, want)
					}
				}
			})
		}
	}
}

// changes reports whether v offers other flows than base or, offering the
// same, runs to other metrics; baseMetrics runs base.
func changes(t *testing.T, base, v Spec, baseMetrics func() map[string]float64) bool {
	t.Helper()
	fb, err := Flows(base)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := Flows(v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fb, fv) {
		return true
	}
	mb, mv := baseMetrics(), mustRun(t, v).Metrics
	if len(mb) != len(mv) {
		return true
	}
	for k, x := range mb {
		if y, ok := mv[k]; !ok || math.Float64bits(x) != math.Float64bits(y) {
			return true
		}
	}
	return false
}
