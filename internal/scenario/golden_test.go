package scenario

import (
	"math"
	"testing"

	"repro/internal/chunk/chunktest"
)

// The values below were produced by the pre-refactor tree (commit 95e041c,
// heap-allocated events and per-frame packet allocation) and are compared
// bit-exactly: the pooled engine and pooled packets must change *nothing*
// observable — same event order, same byte counts, same floating-point
// accumulation — only the speed. Hex float literals pin the exact IEEE-754
// payloads.

var goldenMicro = map[string]map[string]float64{
	"FNCC": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.35p+08, // 309
		// mean_util moved from 0x1.f343dcee87408p-01 when the engine
		// adopted the canonical (at, schedAt, key, seq) collision order:
		// simultaneous link deliveries now fire in port-UID order instead of
		// historical scheduling order, which is what lets the sharded
		// parallel executor reproduce serial runs bit-exactly. One FNCC ACK
		// in this scenario collides with a data delivery and reads INT state
		// one frame earlier. Every other metric here is unaffected.
		"mean_util":    0x1.ee571484a397p-01,
		"pause_frames": 0x0p+00,
		// queue_peak_bytes = 103224
		"queue_peak_bytes": 0x1.9338p+16,
		"resume_frames":    0x0p+00,
	},
	"FNCC-noLHCS": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.36p+08, // 310
		"mean_util":         0x1.e169866eadfa9p-01,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.ec2ap+16, // 125994
		"resume_frames":     0x0p+00,
	},
	"HPCC": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.3fp+08, // 319
		"mean_util":         0x1.c63e749a9225ep-01,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.374fp+17, // 159390
		"resume_frames":     0x0p+00,
	},
	"DCQCN": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.4ep+08, // 334
		"mean_util":         0x1.0018b5823e6eap+00,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.82e98p+18, // 396198
		"resume_frames":     0x0p+00,
	},
	"RoCC": {
		"drops":             0x0p+00,
		"first_slowdown_us": -0x1p+00, // never
		"mean_util":         0x1.0018b5823e6eap+00,
		"pause_frames":      0x1p+01,       // 2
		"queue_peak_bytes":  0x1.0016ap+20, // 1048938
		"resume_frames":     0x0p+00,
	},
	"Timely": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.4dp+08, // 333
		"mean_util":         0x1.0018b5823e6eap+00,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.c71a8p+18, // 466026
		"resume_frames":     0x0p+00,
	},
	"Swift": {
		"drops":             0x0p+00,
		"first_slowdown_us": -0x1p+00,
		"mean_util":         0x1.0018b5823e6eap+00,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.9f14p+17, // 212520
		"resume_frames":     0x0p+00,
	},
	"ExpressPass": {
		"drops":             0x0p+00,
		"first_slowdown_us": -0x1p+00,
		"mean_util":         0x1.98c4fa54cff5bp-04,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x0p+00,
		"resume_frames":     0x0p+00,
	},
}

var goldenIncast = map[string]map[string]float64{
	"FNCC": {
		"all_done_us":      0x1.6fdba0a526959p+05, // 45.98224
		"jain_min":         0x1.ffc83d218cd71p-01,
		"lhcs_triggers":    0x1.3bp+08, // 315
		"pause_frames":     0x0p+00,
		"queue_peak_bytes": 0x1.a4ea8p+18, // 431018
	},
	"DCQCN": {
		"all_done_us":      0x1.6fdba0a526959p+05,
		"jain_min":         0x1.c924924924925p-01,
		"lhcs_triggers":    0x0p+00,
		"pause_frames":     0x0p+00,
		"queue_peak_bytes": 0x1.a4ea8p+18,
	},
}

func checkGolden(t *testing.T, label string, got, want map[string]float64) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: metric %q missing", label, k)
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: %s = %x (%v), pre-refactor tree produced %x (%v)",
				label, k, g, g, w, w)
		}
	}
}

// TestGoldenMicroDeterminism runs the micro scenario for every scheme and
// demands bit-identical metrics versus the pre-refactor tree, with recycled
// run storage poisoned between runs.
func TestGoldenMicroDeterminism(t *testing.T) {
	chunktest.Poison(t)
	for scheme, want := range goldenMicro {
		sp := Spec{
			Name: "golden-micro", Kind: KindMicro, Scheme: scheme,
			Topo:       TopoSpec{Senders: 2, RateGbps: 100},
			DurationUs: 400,
		}
		res, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		checkGolden(t, "micro/"+scheme, res.Metrics, want)
	}
}

// TestGoldenIncastDeterminism covers a second kind — bursty many-to-one
// with PFC interplay — for a window-based and a rate-based scheme.
func TestGoldenIncastDeterminism(t *testing.T) {
	chunktest.Poison(t)
	for scheme, want := range goldenIncast {
		sp := Spec{
			Name: "golden-incast", Kind: KindIncast, Scheme: scheme,
			Topo:       TopoSpec{RateGbps: 100},
			Workload:   WorkloadSpec{Fanout: 8, FlowBytes: 64_000},
			DurationUs: 2000,
		}
		res, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		checkGolden(t, "incast/"+scheme, res.Metrics, want)
	}
}

// TestGoldenRunTwiceIdentical guards run-to-run determinism within this
// tree: two executions of the same spec — on a fresh arena, then on the
// storage that run gave back, poisoned in between — must agree bit-exactly
// on every metric, the engine and pool counters included.
func TestGoldenRunTwiceIdentical(t *testing.T) {
	sp := Spec{
		Kind: KindMicro, Scheme: "FNCC",
		Topo:       TopoSpec{Senders: 3, RateGbps: 100},
		DurationUs: 300,
	}
	runs := runOnOneArena(t, []Spec{sp, sp})
	a, b := runs[0], runs[1]
	if len(a.Metrics) != len(b.Metrics) {
		t.Errorf("run-to-run key drift: %v vs %v", a.MetricNames(), b.MetricNames())
	}
	for k, va := range a.Metrics {
		if math.Float64bits(va) != math.Float64bits(b.Metrics[k]) {
			t.Errorf("run-to-run drift on %s: %v vs %v", k, va, b.Metrics[k])
		}
	}
}
