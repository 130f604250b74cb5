package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// partitionDependent lists the metric keys that legitimately differ between
// the serial and the sharded executor: pool/slot hit rates depend on how the
// event and packet populations split across per-shard pools, and the
// parallel_* keys exist only on sharded runs. Everything else — including the
// exact engine event count — must match bit-for-bit.
var partitionDependent = map[string]bool{
	"event_reuse_rate":     true,
	"pool_hit_rate":        true,
	"parallel_workers":     true,
	"parallel_shards":      true,
	"parallel_windows":     true,
	"cross_shard_messages": true,
}

// diffResults demands bit-identical metrics and telemetry between a serial
// and a parallel run of the same spec.
func diffResults(t *testing.T, label string, serial, par *Result) {
	t.Helper()
	for k, sv := range serial.Metrics {
		if partitionDependent[k] {
			continue
		}
		pv, ok := par.Metrics[k]
		if !ok {
			t.Errorf("%s: metric %q missing from parallel run", label, k)
			continue
		}
		if math.Float64bits(sv) != math.Float64bits(pv) {
			t.Errorf("%s: %s diverged: serial %x (%v), parallel %x (%v)",
				label, k, sv, sv, pv, pv)
		}
	}
	for k := range par.Metrics {
		if !partitionDependent[k] {
			if _, ok := serial.Metrics[k]; !ok {
				t.Errorf("%s: parallel run grew metric %q", label, k)
			}
		}
	}
	// Telemetry series: JSON encoding of float64 is injective on bit
	// patterns (shortest round-trip representation), so byte equality here
	// is bit equality of every sample.
	sj, err := json.Marshal(serial.Telemetry)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	pj, err := json.Marshal(par.Telemetry)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if string(sj) != string(pj) {
		t.Errorf("%s: telemetry diverged:\nserial   %.200s...\nparallel %.200s...",
			label, sj, pj)
	}
	// The figure rows are not in that JSON (the golden digests hash it
	// without them), so a chain run's are compared on their own.
	if serial.Telemetry == nil || serial.FCT != nil {
		return
	}
	if serial.Telemetry.Figure == nil || par.Telemetry.Figure == nil {
		t.Fatalf("%s: a chain run with telemetry exported no figure rows", label)
	}
	sf, err := json.Marshal(serial.Telemetry.Figure)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	pf, err := json.Marshal(par.Telemetry.Figure)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if string(sf) != string(pf) {
		t.Errorf("%s: figure rows diverged:\nserial   %.200s...\nparallel %.200s...", label, sf, pf)
	}
}

// runPair executes sp serially and with the given worker count and diffs.
func runSerialParallelPair(t *testing.T, label string, sp Spec, workers int) {
	t.Helper()
	serial, err := Run(sp)
	if err != nil {
		t.Fatalf("%s serial: %v", label, err)
	}
	sp.Workers = workers
	par, err := Run(sp)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", label, workers, err)
	}
	if workers > 1 {
		if par.Metrics["parallel_shards"] < 2 {
			t.Errorf("%s workers=%d: expected a sharded run, got parallel_shards=%v",
				label, workers, par.Metrics["parallel_shards"])
		}
	}
	diffResults(t, label, serial, par)
}

// differentialMatrix covers every packet kind, both topology families, both
// Poisson CDFs, oversubscription, telemetry probes and an explicit scheme
// override. Durations are trimmed versus the registry defaults so the full
// serial-vs-{2,4,8} matrix stays test-suite friendly; bit-identity is
// horizon-independent, and each point still crosses thousands of
// conservative windows.
var differentialMatrix = []struct {
	label string
	spec  Spec
}{
	{"micro", Spec{Kind: KindMicro, Scheme: "FNCC", DurationUs: 600}},
	{"micro-telemetry", Spec{Kind: KindMicro, Scheme: "FNCC", DurationUs: 500,
		Telemetry: &TelemetrySpec{IntervalUs: 5, Probes: []string{"queue", "switch", "host", "cc"}}}},
	{"hop-first", Spec{Kind: KindHop, Scheme: "FNCC", Hop: "first", DurationUs: 400}},
	{"hop-last", Spec{Kind: KindHop, Scheme: "FNCC", Hop: "last", DurationUs: 400}},
	{"notify-first", Spec{Kind: KindNotify, Scheme: "FNCC", Hop: "first", DurationUs: 400}},
	{"notify-middle-telemetry", Spec{Kind: KindNotify, Scheme: "HPCC", Hop: "middle", DurationUs: 350,
		Telemetry: &TelemetrySpec{IntervalUs: 10, Probes: []string{"queue"}}}},
	{"notify-last", Spec{Kind: KindNotify, Scheme: "HPCC", Hop: "last", DurationUs: 400}},
	{"fairness", Spec{Kind: KindFairness, Scheme: "FNCC",
		Workload: WorkloadSpec{StaggerUs: 300}}},
	{"incast", Spec{Kind: KindIncast, Scheme: "FNCC",
		Workload: WorkloadSpec{Fanout: 8, FlowBytes: 200_000}, DurationUs: 20_000}},
	{"fairness-telemetry", Spec{Kind: KindFairness, Scheme: "HPCC",
		Workload: WorkloadSpec{StaggerUs: 150}, Telemetry: &TelemetrySpec{IntervalUs: 20, Probes: []string{"cc"}}}},
	{"incast-telemetry", Spec{Kind: KindIncast, Scheme: "DCQCN", Workload: WorkloadSpec{Fanout: 8, FlowBytes: 100_000},
		DurationUs: 20_000, Telemetry: &TelemetrySpec{IntervalUs: 5, Probes: []string{"queue", "switch"}}}},
	{"fct-websearch", Spec{Kind: KindFCT, Scheme: "FNCC",
		Workload: WorkloadSpec{CDF: "websearch"}, DurationUs: 300}},
	{"fct-hadoop-telemetry", Spec{Kind: KindFCT, Scheme: "FNCC",
		Workload: WorkloadSpec{CDF: "hadoop"}, DurationUs: 150, Seed: 3,
		Telemetry: &TelemetrySpec{IntervalUs: 20, Probes: []string{"queue"}}}},
	{"oversub-websearch", Spec{Kind: KindFCT, Scheme: "FNCC",
		Topo:     TopoSpec{Oversub: 2},
		Workload: WorkloadSpec{CDF: "websearch"}, DurationUs: 300}},
	{"permutation", Spec{Kind: KindPermutation, Scheme: "FNCC",
		Workload: WorkloadSpec{FlowBytes: 64_000}, DurationUs: 10_000}},
	{"alltoall", Spec{Kind: KindAllToAll, Scheme: "FNCC",
		Workload: WorkloadSpec{FlowBytes: 20_000}, DurationUs: 10_000}},
	{"mixed", Spec{Kind: KindMixed, Scheme: "FNCC", DurationUs: 400}},
	{"micro-hpcc", Spec{Kind: KindMicro, Scheme: "HPCC",
		CC: map[string]float64{"eta": 0.9}, DurationUs: 500}},
}

// TestParallelMatchesSerial is the differential matrix from the parallel
// executor's acceptance bar: every packet scenario kind, serial vs 2/4/8
// workers, bit-exact metrics, telemetry and chain figure rows. Worker count must never matter:
// the partition is fixed by the topology and the merge order is canonical.
func TestParallelMatchesSerial(t *testing.T) {
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, tc := range differentialMatrix {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			t.Parallel()
			for _, w := range workerCounts {
				runSerialParallelPair(t, tc.label, tc.spec, w)
			}
		})
	}
}

// TestWorkersBeyondCores: workers: 8 on a machine with one or two Ps still
// finishes promptly — the executor runs min(workers, shards, GOMAXPROCS)
// wide, so no worker spins for a P that does not exist — with the serial
// run's numbers, and parallel_workers keeps reporting the configured 8 (it is
// in golden digests and the cache identity; the width is the host's business).
func TestWorkersBeyondCores(t *testing.T) {
	sp := Spec{Kind: KindFCT, Scheme: "FNCC", Topo: TopoSpec{K: 4},
		Workload: WorkloadSpec{CDF: "websearch"}, DurationUs: 200}
	serial, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.Workers = 8
	for _, procs := range []int{1, 2} {
		old := runtime.GOMAXPROCS(procs)
		par, err := Run(sp)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if w, s := par.Metrics["parallel_workers"], par.Metrics["parallel_shards"]; w != 8 || s != 5 {
			t.Errorf("GOMAXPROCS=%d: parallel_workers=%v parallel_shards=%v, want 8 and 5", procs, w, s)
		}
		diffResults(t, fmt.Sprintf("GOMAXPROCS=%d", procs), serial, par)
	}
}

// TestWorkersHashNeutralForSerial pins the cache-identity contract of the
// workers knob: 0, 1 and absent are the same serial experiment and must
// share one hash; workers > 1 keys a distinct entry (its result carries the
// parallel_* metrics).
func TestWorkersHashNeutralForSerial(t *testing.T) {
	base := Spec{Kind: KindMicro, Scheme: "FNCC"}
	h := base.Hash()
	for _, w := range []int{0, 1} {
		sp := base
		sp.Workers = w
		if got := sp.Hash(); got != h {
			t.Errorf("workers=%d changed hash: %s vs %s", w, got, h)
		}
		if n := sp.Normalized(); n.Workers != 0 {
			t.Errorf("workers=%d survived normalization as %d", w, n.Workers)
		}
	}
	sp := base
	sp.Workers = 4
	if got := sp.Hash(); got == h {
		t.Errorf("workers=4 kept the serial hash %s", h)
	}
}

// TestWorkersValidation: the knob is packet-only and incompatible with the
// event flight recorder (the trace sink is not shard-aware).
func TestWorkersValidation(t *testing.T) {
	bad := []Spec{
		{Kind: KindMicro, Scheme: "FNCC", Workers: -1},
		{Kind: KindFCT, Scheme: "FNCC", Backend: BackendFluid, Workers: 4},
		{Kind: KindMicro, Scheme: "FNCC", Workers: 2,
			Telemetry: &TelemetrySpec{IntervalUs: 10, Probes: []string{"queue"}, TraceCap: 64}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("spec %d: expected validation error", i)
		}
	}
	ok := Spec{Kind: KindMicro, Scheme: "FNCC", Workers: 8,
		Telemetry: &TelemetrySpec{IntervalUs: 10, Probes: []string{"queue"}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("workers with trace-free telemetry should validate: %v", err)
	}
}

// FuzzParallelEquivalence searches for topology/workload/scheme corners
// where the sharded executor diverges from serial. Inputs are folded into
// small admissible scenarios; any divergence is a soundness bug in the
// conservative window protocol or the canonical merge order.
func FuzzParallelEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(2), uint16(200), uint8(0))
	f.Add(uint8(1), uint8(8), uint8(3), uint16(300), uint8(1))
	f.Add(uint8(2), uint8(3), uint8(5), uint16(150), uint8(2))
	f.Add(uint8(3), uint8(4), uint8(8), uint16(250), uint8(3))
	f.Add(uint8(4), uint8(0), uint8(4), uint16(100), uint8(0))
	f.Fuzz(func(t *testing.T, kindSel, sizeSel, workers uint8, durUs uint16, schemeSel uint8) {
		w := 2 + int(workers)%7 // 2..8
		dur := 100 + int64(durUs)%400
		schemes := []string{"FNCC", "FNCC-noLHCS", "HPCC", "DCQCN"}
		scheme := schemes[int(schemeSel)%len(schemes)]
		var sp Spec
		switch kindSel % 5 {
		case 0: // chain, varying sender count
			sp = Spec{Kind: KindMicro, Scheme: scheme,
				Topo: TopoSpec{Senders: 2 + int(sizeSel)%5}, DurationUs: dur}
		case 1: // chain incast, varying fanout
			sp = Spec{Kind: KindIncast, Scheme: scheme,
				Workload:   WorkloadSpec{Fanout: 2 + int(sizeSel)%8, FlowBytes: 40_000},
				DurationUs: 10 * dur}
		case 2: // fat-tree shuffle
			sp = Spec{Kind: KindAllToAll, Scheme: scheme,
				Workload:   WorkloadSpec{FlowBytes: 5_000 + 1_000*int64(sizeSel%8)},
				DurationUs: 20 * dur}
		case 3: // fat-tree Poisson, varying seed
			sp = Spec{Kind: KindFCT, Scheme: scheme, Seed: 1 + int64(sizeSel),
				Workload: WorkloadSpec{CDF: "websearch"}, DurationUs: dur}
		case 4: // chain notification timing (200 ns sampling), varying hop
			sp = Spec{Kind: KindNotify, Scheme: scheme,
				Hop: []string{"first", "middle", "last"}[int(sizeSel)%3], DurationUs: 300 + dur}
		}
		serial, err := Run(sp)
		if err != nil {
			t.Skip() // inadmissible corner (e.g. fanout vs hosts)
		}
		sp.Workers = w
		par, err := Run(sp)
		if err != nil {
			t.Fatalf("parallel run failed where serial succeeded: %v", err)
		}
		for k, sv := range serial.Metrics {
			if partitionDependent[k] {
				continue
			}
			if pv := par.Metrics[k]; math.Float64bits(sv) != math.Float64bits(pv) {
				t.Errorf("workers=%d %s/%s: %s diverged: serial %v, parallel %v",
					w, sp.Kind, scheme, k, sv, pv)
			}
		}
	})
}

// TestSharedSchemeConcurrentNetworks: one netsim.Scheme value serves two
// networks running at once — one serial, one on the 2-worker sharded executor
// — without a race (run it under -race): the per-flow state both build comes
// from each network's own chunks, never from the scheme. Each network's
// completions equal those of its own run alone, and the two equal each other.
func TestSharedSchemeConcurrentNetworks(t *testing.T) {
	sp := Spec{Kind: KindFCT, Scheme: "FNCC", Topo: TopoSpec{K: 4},
		Workload: WorkloadSpec{CDF: "hadoop"}, Load: 0.5, Seed: 3, DurationUs: 200}.Normalized()
	scheme, err := BuildScheme(sp.Scheme, sp.CC)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ([]metrics.FCTRecord, error) {
		var a Arena
		fab, err := exp.NewPacketFatTree(&a.net, scheme, sp.Seed, topo.FatTreeOpts{
			K: sp.Topo.K, RateBps: sp.Topo.RateBps(), Delay: sp.Topo.Delay(), Workers: workers})
		if err != nil {
			return nil, err
		}
		if _, _, err := offerFlowSet(sp, fab, &a); err != nil {
			return nil, err
		}
		res := fab.Run(11*sp.Duration(), nil)
		if !res.Done {
			return nil, fmt.Errorf("workers %d: flows left at the deadline", workers)
		}
		return res.FCT.Records, nil
	}
	widths := []int{1, 2}
	var alone, together [2][]metrics.FCTRecord
	for i, w := range widths {
		if alone[i], err = run(w); err != nil {
			t.Fatal(err)
		}
	}
	var errs [2]error
	var wg sync.WaitGroup
	for i, w := range widths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = run(w)
		}()
	}
	wg.Wait()
	for i, w := range widths {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !slices.Equal(together[i], alone[i]) {
			t.Errorf("workers %d: completions differ between the concurrent and the lone run", w)
		}
	}
	if !slices.Equal(alone[0], alone[1]) {
		t.Error("the sharded run's completions differ from the serial run's")
	}
}
