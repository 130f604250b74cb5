package scenario

import (
	"math"
	"testing"

	"repro/internal/chunk/chunktest"
)

// Golden probe series for the seeded incast run (the same spec as
// TestGoldenIncastDeterminism plus a telemetry block): the first 8 samples
// of the last-hop queue, its utilization, flow 1's pacing rate, and — for
// DCQCN — the ECN/CNP/alpha chain, pinned bit-exactly. Probes are read-only
// observers, so any drift here means either the probe layer perturbed the
// simulation or the simulation itself changed; both must be deliberate.
//
// Values produced by this tree at the telemetry layer's introduction.
var goldenIncastSeries = map[string]map[string][]float64{
	"FNCC": {
		"sw2/p1/queue_bytes": {0x1.228ep+18, 0x1.a4ea8p+18, 0x1.66a78p+18, 0x1.29ep+18, 0x1.da31p+17, 0x1.60a2p+17, 0x1.ce26p+16, 0x1.aa34p+15},
		"sw2/p1/util":        {0x1.4fc1df3300de4p-01, 0x1.fdda8bd230b9dp-01, 0x1.052502eec7c95p+00, 0x1.fdda8bd230b9dp-01, 0x1.fdda8bd230b9dp-01, 0x1.fdda8bd230b9dp-01, 0x1.fdda8bd230b9dp-01, 0x1.052502eec7c95p+00},
		"flow1/rate_bps":     {0x1.74876e8p+36, 0x1.5e8497e38p+33, 0x1.77bf38f7p+32, 0x1.32db6bffp+32, 0x1.1f0b5fccp+32, 0x1.201a54p+32, 0x1.2f13f66ep+32, 0x1.4b5e1505p+32},
	},
	"DCQCN": {
		"sw2/p1/queue_bytes": {0x1.228ep+18, 0x1.a4ea8p+18, 0x1.66a78p+18, 0x1.29ep+18, 0x1.da31p+17, 0x1.60a2p+17, 0x1.ce26p+16, 0x1.aa34p+15},
		"sw2/p1/util":        {0x1.4fc1df3300de4p-01, 0x1.fdda8bd230b9dp-01, 0x1.052502eec7c95p+00, 0x1.fdda8bd230b9dp-01, 0x1.fdda8bd230b9dp-01, 0x1.fdda8bd230b9dp-01, 0x1.fdda8bd230b9dp-01, 0x1.052502eec7c95p+00},
		"flow1/rate_bps":     {0x1.74876e8p+36, 0x1.74876e8p+36, 0x1.74876e8p+36, 0x1.74876e8p+36, 0x1.74876e8p+36, 0x1.74876e8p+36, 0x1.74876e8p+35, 0x1.74876e8p+35},
		"sw2/ecn_marks":      {0x1p+03, 0x1.3cp+06, 0x1.3cp+06, 0x1.3cp+06, 0x1.3cp+06, 0x1.3cp+06, 0x1.3cp+06, 0x1.3cp+06},
		"host3/cnp_rx":       {0x0p+00, 0x0p+00, 0x0p+00, 0x0p+00, 0x0p+00, 0x0p+00, 0x1p+00, 0x1p+00},
		"flow1/cc/alpha":     {0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00},
	},
}

// goldenFluidSeries is the fluid twin: 8 equal senders split the 100 G
// receiver access link (12.5 G each) and hold its occupancy at exactly 1.
var goldenFluidSeries = map[string][]float64{
	"flow1/rate_bps":   {0x1.74876e8p+33, 0x1.74876e8p+33, 0x1.74876e8p+33, 0x1.74876e8p+33, 0x1.74876e8p+33, 0x1.74876e8p+33, 0x1.74876e8p+33, 0x1.74876e8p+33},
	"link10/occupancy": {0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00, 0x1p+00},
}

func goldenIncastTelemetrySpec(scheme string) Spec {
	return Spec{
		Name: "golden-incast-telemetry", Kind: KindIncast, Scheme: scheme,
		Topo:       TopoSpec{RateGbps: 100},
		Workload:   WorkloadSpec{Fanout: 8, FlowBytes: 64_000},
		DurationUs: 2000,
		Telemetry: &TelemetrySpec{
			IntervalUs: 5,
			Probes:     []string{"queue", "switch", "host", "cc"},
			TraceCap:   1024,
		},
	}
}

func checkGoldenSeries(t *testing.T, label string, res *Result, want map[string][]float64) {
	t.Helper()
	if res.Telemetry == nil {
		t.Fatalf("%s: no telemetry in result", label)
	}
	for name, vals := range want {
		s := res.Telemetry.SeriesByName(name)
		if s == nil {
			t.Errorf("%s: series %q missing", label, name)
			continue
		}
		if len(s.Values) < len(vals) {
			t.Errorf("%s: %s has %d samples, want >= %d", label, name, len(s.Values), len(vals))
			continue
		}
		for i, w := range vals {
			if math.Float64bits(s.Values[i]) != math.Float64bits(w) {
				t.Errorf("%s: %s[%d] = %x (%v), golden %x (%v)",
					label, name, i, s.Values[i], s.Values[i], w, w)
			}
		}
	}
}

// TestGoldenIncastTelemetrySeries pins the probe series of the seeded
// incast run for a window-based and a rate-based scheme on the packet
// backend, and checks telemetry does not disturb the run's metrics (which
// TestGoldenIncastDeterminism pins without telemetry).
func TestGoldenIncastTelemetrySeries(t *testing.T) {
	chunktest.Poison(t)
	for scheme, want := range goldenIncastSeries {
		res, err := Run(goldenIncastTelemetrySpec(scheme))
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		checkGoldenSeries(t, "incast/"+scheme, res, want)
		if base, ok := goldenIncast[scheme]; ok {
			checkGolden(t, "incast-with-telemetry/"+scheme, res.Metrics, base)
		}
		if res.Telemetry.TraceTotal == 0 || len(res.Telemetry.Trace) == 0 {
			t.Errorf("%s: flight recorder captured nothing", scheme)
		}
		if len(res.Telemetry.Trace) > 1024 {
			t.Errorf("%s: trace exceeded its cap: %d", scheme, len(res.Telemetry.Trace))
		}
	}
}

// TestGoldenIncastTelemetrySeriesFluid pins the fluid twin's rate and
// bottleneck-occupancy series for the same flow set.
func TestGoldenIncastTelemetrySeriesFluid(t *testing.T) {
	chunktest.Poison(t)
	sp := goldenIncastTelemetrySpec("FNCC")
	sp.Backend = BackendFluid
	sp.Telemetry = &TelemetrySpec{IntervalUs: 5, Probes: []string{"rate", "link"}}
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenSeries(t, "incast/fluid", res, goldenFluidSeries)
}
