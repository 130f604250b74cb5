package scenario

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/fluid"
)

// TestBackendValidation: the fluid backend is accepted exactly for the
// FCT-style kinds and rejected, with a pointer at the supported set, for
// the inherently packet-level ones.
func TestBackendValidation(t *testing.T) {
	fluidOK := map[string]bool{
		KindFCT: true, KindIncast: true, KindPermutation: true, KindAllToAll: true,
	}
	for _, kind := range Kinds() {
		sp := Spec{Kind: kind, Scheme: "FNCC", Backend: BackendFluid}
		err := sp.Validate()
		if fluidOK[kind] && err != nil {
			t.Errorf("kind %q rejects fluid: %v", kind, err)
		}
		if !fluidOK[kind] {
			if err == nil {
				t.Errorf("kind %q accepted the fluid backend", kind)
			} else if !strings.Contains(err.Error(), "packet-level") {
				t.Errorf("kind %q rejection does not explain itself: %v", kind, err)
			}
		}
	}
	// Explicit "packet" is the default spelled out.
	sp := Spec{Kind: KindMicro, Scheme: "FNCC", Backend: BackendPacket}
	if err := sp.Validate(); err != nil {
		t.Errorf("explicit packet backend rejected: %v", err)
	}
	sp.Backend = "quantum"
	if err := sp.Validate(); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestBackendHashing: "packet" normalizes to the zero value — the same
// canonical bytes and hash as before the Backend field existed, keeping old
// caches valid — while "fluid" mints a distinct identity.
func TestBackendHashing(t *testing.T) {
	base := Spec{Kind: KindFCT, Scheme: "FNCC"}
	packet := base
	packet.Backend = BackendPacket
	if got, want := packet.Hash(), base.Hash(); got != want {
		t.Errorf("explicit packet hash %s != default hash %s", got, want)
	}
	if c := mustNorm(t, packet).Canonical(); strings.Contains(string(c), "backend") {
		t.Errorf("packet backend leaks into the canonical encoding: %s", c)
	}
	fluidSp := base
	fluidSp.Backend = BackendFluid
	if fluidSp.Hash() == base.Hash() {
		t.Error("fluid and packet specs share a hash (cache poisoning)")
	}
	if c := mustNorm(t, fluidSp).Canonical(); !strings.Contains(string(c), `"backend":"fluid"`) {
		t.Errorf("fluid backend missing from canonical encoding: %s", c)
	}
}

// TestBackendCCOverrides: fluid accepts only its own convergence knob;
// packet-level scheme parameters must fail loudly instead of being
// silently ignored.
func TestBackendCCOverrides(t *testing.T) {
	sp := Spec{Kind: KindFCT, Scheme: "FNCC", Backend: BackendFluid,
		CC: map[string]float64{FluidSchemeCCKey: 0}}
	if err := sp.Validate(); err != nil {
		t.Errorf("fluid_tau_rtts=0 (instant baseline) rejected: %v", err)
	}
	sp.CC = map[string]float64{"alpha": 1.1}
	if err := sp.Validate(); err == nil {
		t.Error("fluid backend accepted a packet-level cc override")
	}
	sp.CC = map[string]float64{FluidSchemeCCKey: -1}
	if err := sp.Validate(); err == nil {
		t.Error("negative fluid_tau_rtts accepted")
	}
	// The fluid knob is equally meaningless under packet.
	sp = Spec{Kind: KindFCT, Scheme: "FNCC", CC: map[string]float64{FluidSchemeCCKey: 1}}
	if err := sp.Validate(); err == nil {
		t.Error("packet backend accepted fluid_tau_rtts")
	}
}

// TestRunFluidKinds executes each fluid-capable kind end to end and checks
// the metric surface: FCT statistics present, queue/PFC counters absent
// (the model has no queues — emitting zeros would read as "measured, and
// zero").
func TestRunFluidKinds(t *testing.T) {
	cases := []struct {
		spec    Spec
		want    []string
		notWant []string
	}{
		{Spec{Kind: KindFCT, Scheme: "FNCC", Backend: BackendFluid,
			Topo: TopoSpec{K: 4}, DurationUs: 300, Seed: 2},
			[]string{"completed", "generated", "slowdown_avg", "offered_load"},
			[]string{"pause_frames", "drops"}},
		{Spec{Kind: KindIncast, Scheme: "FNCC", Backend: BackendFluid,
			Workload: WorkloadSpec{Fanout: 4, FlowBytes: 200_000}, DurationUs: 20_000},
			[]string{"all_done_us", "jain_min"},
			[]string{"queue_peak_bytes", "pause_frames"}},
		{Spec{Kind: KindPermutation, Scheme: "FNCC", Backend: BackendFluid,
			Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{FlowBytes: 200_000}},
			[]string{"completed", "makespan_us", "slowdown_avg", "completed_all"},
			[]string{"pause_frames", "drops"}},
		{Spec{Kind: KindAllToAll, Scheme: "FNCC", Backend: BackendFluid,
			Topo: TopoSpec{K: 2}, Workload: WorkloadSpec{FlowBytes: 100_000}},
			[]string{"completed", "makespan_us", "slowdown_avg"},
			[]string{"pause_frames"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.spec.Kind, func(t *testing.T) {
			t.Parallel()
			res, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range tc.want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("metric %q missing (have %v)", m, res.MetricNames())
				}
			}
			for _, m := range tc.notWant {
				if _, ok := res.Metrics[m]; ok {
					t.Errorf("fluid run emitted packet-level metric %q", m)
				}
			}
			if res.Metrics["completed"] != res.Metrics["generated"] &&
				tc.spec.Kind != KindIncast {
				t.Errorf("completed %v != generated %v",
					res.Metrics["completed"], res.Metrics["generated"])
			}
		})
	}
}

// TestFluidInstantBaselineBeatsLagged: on a contended scenario the
// idealized instant max-min baseline must finish no later than any lagged
// scheme — the sanity ordering that makes scheme comparisons on the fluid
// backend meaningful.
func TestFluidInstantBaselineBeatsLagged(t *testing.T) {
	base := Spec{Kind: KindIncast, Scheme: "DCQCN", Backend: BackendFluid,
		Workload: WorkloadSpec{Fanout: 8, FlowBytes: 500_000}, DurationUs: 50_000}
	lagged, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	instant := base
	instant.CC = map[string]float64{FluidSchemeCCKey: 0}
	ideal, err := Run(instant)
	if err != nil {
		t.Fatal(err)
	}
	li, ok1 := lagged.Metrics["all_done_us"]
	ii, ok2 := ideal.Metrics["all_done_us"]
	if !ok1 || !ok2 || li < 0 || ii < 0 {
		t.Fatalf("incast runs missed the deadline: lagged %v ideal %v", li, ii)
	}
	if ii > li {
		t.Errorf("instant baseline (%v us) slower than lagged DCQCN (%v us)", ii, li)
	}
}

// TestFluidPerfMetricKeysPinned: the fluid columns of a metric map are part
// of every fluid point's cached result and of the benchmark's digests, so
// fluid.Stats may grow counters (LinkSolves, SolvesSkipped) but none of
// them may leak into the map without a deliberate change here.
func TestFluidPerfMetricKeysPinned(t *testing.T) {
	m := map[string]float64{}
	fluidPerfMetrics(m, fluid.Stats{
		Events: 10, Recomputes: 1, IncrementalPasses: 9, MaxActive: 3,
		LinksTouched: 4, FlowsTouched: 5, HeapInvalidations: 6,
		LinkSolves: 7, SolvesSkipped: 8,
	})
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"engine_events",
		"fluid_flows_touched_per_event", "fluid_full_passes",
		"fluid_heap_invalidations_per_event", "fluid_incremental_passes",
		"fluid_links_touched_per_event",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("fluid metric keys\n got %v\nwant %v", got, want)
	}
}
