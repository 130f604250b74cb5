package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// pointResult is the outcome of one scenario.Run or one grid point.
type pointResult struct {
	name    string
	metrics map[string]float64
	fail    string // why the point failed on its own account; "" if it did not
}

// instance is one set-up workload: inputs built from the seed, ready to
// repeat. body(nil) is exactly what a user would run; body(tr) may go
// through the staged mirror and records spans and counters into tr.
type instance struct {
	prepare func() error // untimed, before every body; may be nil
	body    func(tr *tracer) ([]pointResult, error)
	release func() // untimed, after every body; may be nil
	// verify runs once after the timed repeats and returns the failures of
	// the cross-mode checks (serial vs sharded, cold vs warm vs served).
	verify  func(first []pointResult) []string
	cleanup func()
}

// runBody runs one repeat with its untimed prepare/release around it.
func (in *instance) runBody(tr *tracer) (points []pointResult, c cost, err error) {
	if in.prepare != nil {
		if err := in.prepare(); err != nil {
			return nil, cost{}, err
		}
	}
	if in.release != nil {
		defer in.release()
	}
	c, err = measure(func() error {
		points, err = in.body(tr)
		return err
	})
	return points, c, err
}

func (in *instance) close() {
	if in.cleanup != nil {
		in.cleanup()
	}
}

// env is where a workload may write: a scratch directory inside the
// checkout, removed when the run ends.
type env struct {
	scratch string
	seq     int
}

// freshDir returns a new empty directory under the scratch root.
func (e *env) freshDir() (string, error) {
	e.seq++
	dir := filepath.Join(e.scratch, fmt.Sprintf("d%04d", e.seq))
	return dir, os.MkdirAll(dir, 0o755)
}

// workloadDef names a workload and says how to set it up from a seed. The
// names are fixed: issues cite them.
type workloadDef struct {
	name string
	why  string
	// combined pins the whole point list with one golden digest (sweeps).
	combined bool
	setup    func(e *env, seed int64) (*instance, error)
	// paired, if set, adds the traced run's measurements that need a second
	// arm (see paired.go).
	paired func(r *run, m map[string]float64, withTrace cost) error
}

var workloads = []workloadDef{
	{name: "fct-websearch",
		why:   "Fig 14 shape: few long flows on a fat-tree, so host time goes to the event heap (sim) and forwarding",
		setup: fctSetup(webSearchSpec)},
	{name: "fct-hadoop",
		why:   "Fig 15 shape: thousands of short flows through the same packet layer, so per-flow host state (netsim) dominates",
		setup: fctSetup(hadoopSpec)},
	{name: "fct-sharded",
		why:    "the fct-websearch spec on the 2-worker sharded executor; must equal serial bit for bit, costs CPU for wall",
		setup:  fctSetup(func(seed int64) scenario.Spec { sp := webSearchSpec(seed); sp.Workers = 2; return sp }),
		paired: shardPaired},
	{name: "fluid-scale",
		why:   "fluid backend only: sparse elephants (k=16) and a mice storm that overruns the work budget (k=8) at 3 sub-seeds, plus a build-bound k=32 point; packet changes predict no move",
		setup: fluidSetup, paired: modelErrPaired},
	{name: "figures-chain",
		why:   "29 chain points over every cc/core scheme (Figs 1/3/9/13): timers, PFC and one fabric build per point",
		setup: figuresSetup, paired: telemetryPaired},
	{name: "sweep-cold", combined: true,
		why:   "224 small fluid points through a 2-worker harness.Runner into an empty cache: job dispatch, markers and cache writes around ~5 ms simulations",
		setup: sweepSetup(sweepCold), paired: sweepLayers},
	{name: "sweep-warm", combined: true,
		why:   "the same grid replayed 20 times from a full cache: hash + load per point, nothing simulates",
		setup: sweepSetup(sweepWarm), paired: sweepLayers},
	{name: "sweep-served", combined: true,
		why:   "the same cold grid through sweepd over an in-process loopback HTTP server: submit plus NDJSON stream envelope",
		setup: sweepSetup(sweepServed), paired: sweepLayers},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func webSearchSpec(seed int64) scenario.Spec {
	return scenario.Spec{Name: "fct-websearch", Kind: scenario.KindFCT, Scheme: "FNCC",
		Topo: scenario.TopoSpec{K: 4}, Workload: scenario.WorkloadSpec{CDF: "websearch"},
		Load: 0.5, DurationUs: 2000, Seed: seed}
}

func hadoopSpec(seed int64) scenario.Spec {
	return scenario.Spec{Name: "fct-hadoop", Kind: scenario.KindFCT, Scheme: "FNCC",
		Topo: scenario.TopoSpec{K: 4}, Workload: scenario.WorkloadSpec{CDF: "hadoop"},
		Load: 0.5, DurationUs: 1400, Seed: seed}
}

// runPoint is one scenario.Run as a point.
func runPoint(sp scenario.Spec) pointResult {
	res, err := scenario.Run(sp)
	if err != nil {
		return pointResult{name: sp.Name, fail: err.Error()}
	}
	return pointResult{name: sp.Name, metrics: res.Metrics}
}

// stagedPoint is the traced twin of runPoint for plain FCT specs.
func stagedPoint(sp scenario.Spec, tr *tracer, parent int) pointResult {
	m, err := stagedFCT(sp, tr, parent)
	if err != nil {
		return pointResult{name: sp.Name, fail: err.Error()}
	}
	return pointResult{name: sp.Name, metrics: m}
}

// fctSetup makes the set-up of a one-spec packet FCT workload.
func fctSetup(mk func(seed int64) scenario.Spec) func(*env, int64) (*instance, error) {
	return func(_ *env, seed int64) (*instance, error) {
		sp := mk(seed)
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		in := &instance{body: func(tr *tracer) ([]pointResult, error) {
			if tr == nil {
				return []pointResult{runPoint(sp)}, nil
			}
			root := tr.begin(sp.Name, -1)
			defer tr.end(root)
			return []pointResult{stagedPoint(sp, tr, root)}, nil
		}}
		if sp.Workers > 1 {
			in.verify = func(first []pointResult) []string {
				serial := sp
				serial.Workers = 0
				want := runPoint(serial)
				if want.fail != "" {
					return []string{"serial twin: " + want.fail}
				}
				if digest(first[0].metrics, shardOnly) != digest(want.metrics, shardOnly) {
					return []string{"sharded digest differs from the serial run of the same spec"}
				}
				return nil
			}
		}
		return in, nil
	}
}

// fluidSubSeeds is how many sub-seeds a fluid-scale repeat averages over:
// the fluid engine's cost per event moves ±20 % with which flows happen to
// collide, so one seed per repeat would measure the seed.
const fluidSubSeeds = 3

// fluidSpecs are the fluid-scale points: two FCT regimes at each sub-seed
// and one build-bound permutation. Names are <family>/<seed>.
func fluidSpecs(seed int64) []scenario.Spec {
	var specs []scenario.Spec
	for i := int64(0); i < fluidSubSeeds; i++ {
		sub := seed + i*1_000_003
		specs = append(specs,
			scenario.Spec{Name: fmt.Sprintf("fluid.websearch_k16/%d", sub), Kind: scenario.KindFCT,
				Backend: scenario.BackendFluid, Scheme: "FNCC", Topo: scenario.TopoSpec{K: 16},
				Workload: scenario.WorkloadSpec{CDF: "websearch"}, DurationUs: 1500, Seed: sub},
			scenario.Spec{Name: fmt.Sprintf("fluid.hadoop_k8/%d", sub), Kind: scenario.KindFCT,
				Backend: scenario.BackendFluid, Scheme: "FNCC", Topo: scenario.TopoSpec{K: 8},
				Workload: scenario.WorkloadSpec{CDF: "hadoop"}, DurationUs: 70, Seed: sub})
	}
	return append(specs, scenario.Spec{Name: "fluid.permutation_k32", Kind: scenario.KindPermutation,
		Backend: scenario.BackendFluid, Scheme: "FNCC", Topo: scenario.TopoSpec{K: 32}, Seed: seed})
}

func fluidSetup(_ *env, seed int64) (*instance, error) {
	specs := fluidSpecs(seed)
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
	}
	return &instance{body: func(tr *tracer) ([]pointResult, error) {
		points := make([]pointResult, len(specs))
		for i, sp := range specs {
			family, _, _ := strings.Cut(sp.Name, "/")
			id := tr.begin(family, -1)
			if tr != nil && sp.Kind == scenario.KindFCT {
				points[i] = stagedPoint(sp, tr, id)
			} else {
				points[i] = runPoint(sp)
			}
			tr.end(id)
		}
		return points, nil
	}}, nil
}

// figureSpecs are the 29 chain points. Chain kinds take no seed, so the
// workload seed orders the points instead of parameterising them.
func figureSpecs(seed int64) []scenario.Spec {
	var specs []scenario.Spec
	add := func(name string, sp scenario.Spec) {
		sp.Name = name + "/" + sp.Scheme
		specs = append(specs, sp)
	}
	for _, s := range []string{"FNCC", "HPCC", "DCQCN", "RoCC"} {
		add("micro", scenario.Spec{Kind: scenario.KindMicro, Scheme: s})
		for _, hop := range []string{"first", "middle", "last"} {
			add("hop-"+hop, scenario.Spec{Kind: scenario.KindHop, Scheme: s, Hop: hop})
		}
		// Registry defaults except here: a 250 us stagger keeps the four
		// fairness points from being half the repeat.
		add("fairness", scenario.Spec{Kind: scenario.KindFairness, Scheme: s,
			Workload: scenario.WorkloadSpec{StaggerUs: 250}})
		add("incast", scenario.Spec{Kind: scenario.KindIncast, Scheme: s})
	}
	add("hop-last", scenario.Spec{Kind: scenario.KindHop, Scheme: "FNCC-noLHCS", Hop: "last"})
	add("incast", scenario.Spec{Kind: scenario.KindIncast, Scheme: "FNCC-noLHCS"})
	for _, s := range []string{"Timely", "Swift", "ExpressPass"} {
		add("micro", scenario.Spec{Kind: scenario.KindMicro, Scheme: s})
	}
	// Fisher-Yates on a splitmix64 stream of the seed.
	x := uint64(seed)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := len(specs) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		specs[i], specs[j] = specs[j], specs[i]
	}
	return specs
}

func figuresSetup(_ *env, seed int64) (*instance, error) {
	specs := figureSpecs(seed)
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
	}
	return &instance{body: func(tr *tracer) ([]pointResult, error) {
		points := make([]pointResult, len(specs))
		for i, sp := range specs {
			id := tr.begin(sp.Name, -1)
			points[i] = runPoint(sp)
			tr.end(id)
		}
		return points, nil
	}}, nil
}

// sweepGrid is the sweep workloads' grid: fluid FCT k=4 websearch, 10000 us,
// over 4 schemes x 7 loads x 8 seeds = 224 points of ~5 ms of simulation
// each. Smaller points would make the harness's share larger, but on this
// host's ext4 the cache's file operations swing 4x from process to process
// (0.05-0.2 s of a pass for the same grid): at 0.1 ms a point they are 70 %
// of a cold pass, and at this size under a tenth.
func sweepGrid(seed int64) harness.Sweep {
	g := harness.Grid{Schemes: []string{"FNCC", "HPCC", "DCQCN", "RoCC"}}
	for l := 2; l <= 8; l++ {
		g.Loads = append(g.Loads, float64(l)/10)
	}
	for s := int64(0); s < 8; s++ {
		g.Seeds = append(g.Seeds, seed+s)
	}
	return harness.Sweep{Grid: g, Base: scenario.Spec{Kind: scenario.KindFCT, Backend: scenario.BackendFluid,
		Scheme: "FNCC", Topo: scenario.TopoSpec{K: 4}, Workload: scenario.WorkloadSpec{CDF: "websearch"},
		DurationUs: 10000}}
}
