// Package scenario is the declarative front end of the simulator: a
// JSON-serializable Spec describes one experiment (topology, congestion-
// control scheme with parameter overrides, workload, load point, seed and
// duration), and Run executes it into a metric map that is a pure function of
// the spec. Every kind is
// a set of flows (flows.go) offered to an exp.Fabric: fct, mixed,
// permutation, alltoall and fluid incast fold flow completions on a
// fat-tree or fluid fabric; micro, hop, notify, fairness and packet incast
// run on the packet chain under a sampler that folds queues and pacing
// rates while they run (run.go). Specs normalize to a
// canonical encoding with a stable content hash, which is what the sweep
// harness (internal/harness) keys its result cache on. A registry of named
// built-in scenarios covers every figure plus fabric patterns the paper does
// not run (permutation, all-to-all shuffle, oversubscribed fat-trees, mixed
// background+incast).
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Scenario kinds: which runner interprets the spec.
const (
	// KindMicro is the Fig 9 / Fig 1b-d dumbbell micro-benchmark.
	KindMicro = "micro"
	// KindHop is the Fig 13a-d hop-location study.
	KindHop = "hop"
	// KindFairness is the Fig 13e staggered join/leave experiment.
	KindFairness = "fairness"
	// KindFCT is the §5.5 fat-tree Poisson FCT experiment (Figs 14-15),
	// optionally with an oversubscribed core (Topo.Oversub > 1).
	KindFCT = "fct"
	// KindIncast is the N-to-1 last-hop burst of §3.2.2.
	KindIncast = "incast"
	// KindPermutation sends one fixed-size flow per host to the host a
	// constant shift away — an admissible pattern that loads every tier.
	KindPermutation = "permutation"
	// KindAllToAll is the shuffle: every host sends to every other host
	// simultaneously.
	KindAllToAll = "alltoall"
	// KindMixed layers periodic incast bursts over a Poisson background
	// workload on a fat-tree.
	KindMixed = "mixed"
	// KindNotify is the Fig 2/12 notification-latency measurement: the hop
	// study's chain with a persistent second flow, timing the victim
	// sender's first rate decrease after congestion onset.
	KindNotify = "notify"
)

// A knobs value is a set of the spec fields whose use depends on the kind,
// one bit each. The bit order is the order Validate names them in.
type knobs uint32

const (
	knobTopoKind knobs = 1 << iota
	knobSeed
	knobLoad
	knobHop
	knobSenders
	knobK
	knobSwitches
	knobOversub
	knobCDF
	knobFlowBytes
	knobFanout
	knobShift
	knobStagger
	knobBurstEvery
	knobDuration
	knobDelay
	knobRate
)

// knobTable gives each knob, in bit order, its JSON name and its value in a
// spec.
var knobTable = [...]struct {
	name string
	of   func(*Spec) any
}{
	{"topo.kind", func(s *Spec) any { return s.Topo.Kind }},
	{"seed", func(s *Spec) any { return s.Seed }},
	{"load", func(s *Spec) any { return s.Load }},
	{"hop", func(s *Spec) any { return s.Hop }},
	{"topo.senders", func(s *Spec) any { return s.Topo.Senders }},
	{"topo.k", func(s *Spec) any { return s.Topo.K }},
	{"topo.switches", func(s *Spec) any { return s.Topo.Switches }},
	{"topo.oversub", func(s *Spec) any { return s.Topo.Oversub }},
	{"workload.cdf", func(s *Spec) any { return s.Workload.CDF }},
	{"workload.flow_bytes", func(s *Spec) any { return s.Workload.FlowBytes }},
	{"workload.fanout", func(s *Spec) any { return s.Workload.Fanout }},
	{"workload.shift", func(s *Spec) any { return s.Workload.Shift }},
	{"workload.stagger_us", func(s *Spec) any { return s.Workload.StaggerUs }},
	{"workload.burst_every_us", func(s *Spec) any { return s.Workload.BurstEveryUs }},
	{"duration_us", func(s *Spec) any { return s.DurationUs }},
	{"topo.delay_ns", func(s *Spec) any { return s.Topo.DelayNs }},
	{"topo.rate_gbps", func(s *Spec) any { return s.Topo.RateGbps }},
}

func (ks knobs) has(k knobs) bool { return ks&k != 0 }

// first is the bit index of the lowest knob in the set.
func (ks knobs) first() int { return bits.TrailingZeros32(uint32(ks)) }

// kindRow is what the package knows of one kind outside its runner.
type kindRow struct {
	// def is the kind's default spec. Normalized fills each zero knob from
	// it, and Validate holds each knob not in free to it.
	def Spec
	// fluid is whether the fluid backend runs the kind. Its outputs are
	// flow-completion statistics, which the fluid model approximates; the
	// other kinds measure queue dynamics, PFC or sub-RTT rate timelines that
	// only the packet engine produces.
	fluid bool
	// free is the knobs a spec of the kind may set; the others are fixed at
	// def's values. A runner may still read a fixed knob: the fat-tree
	// runners read topo.delay_ns and the chain runners topo.switches, which
	// only policy holds at 1,500 ns and 3.
	free knobs
}

// chain is the chain runners' fabric, fixed at three switches;
// fatTree is the k-ary fat-tree. Both default to 100 Gb/s links of 1,500 ns.
func chain(senders int) TopoSpec {
	return TopoSpec{Kind: "chain", Switches: 3, Senders: senders, RateGbps: 100, DelayNs: 1500}
}

func fatTree(k int) TopoSpec {
	return TopoSpec{Kind: "fattree", K: k, RateGbps: 100, DelayNs: 1500}
}

// kindRows holds one row per kind, in canonical order.
var kindRows = [...]kindRow{
	{def: Spec{Kind: KindMicro, Topo: chain(2), DurationUs: 1200},
		free: knobRate | knobDuration | knobSenders},
	{def: Spec{Kind: KindHop, Topo: chain(2), Hop: "last", DurationUs: 800},
		free: knobRate | knobDuration | knobHop},
	{def: Spec{Kind: KindFairness, Topo: chain(4), Workload: WorkloadSpec{StaggerUs: 1000}},
		free: knobRate | knobSenders | knobStagger},
	{def: Spec{Kind: KindFCT, Topo: fatTree(8), Workload: WorkloadSpec{CDF: "websearch"},
		Load: 0.5, Seed: 1, DurationUs: 2000},
		fluid: true,
		free:  knobRate | knobDuration | knobK | knobOversub | knobCDF | knobLoad | knobSeed},
	{def: Spec{Kind: KindIncast, Topo: chain(0), Workload: WorkloadSpec{Fanout: 16, FlowBytes: 2 << 20},
		DurationUs: 100_000},
		fluid: true,
		free:  knobRate | knobDuration | knobFanout | knobFlowBytes},
	// On the fluid backend nothing reads the seed of permutation and
	// alltoall (on packet, only DCQCN's WRED draws from it), but bench/'s
	// fluid-scale workload sets it on fluid permutation, so both leave it free.
	{def: Spec{Kind: KindPermutation, Topo: fatTree(8), Workload: WorkloadSpec{FlowBytes: 1 << 20},
		DurationUs: 50_000},
		fluid: true,
		free:  knobRate | knobDuration | knobK | knobOversub | knobDelay | knobFlowBytes | knobShift | knobSeed},
	{def: Spec{Kind: KindAllToAll, Topo: fatTree(4), Workload: WorkloadSpec{FlowBytes: 100_000},
		DurationUs: 50_000},
		fluid: true,
		free:  knobRate | knobDuration | knobK | knobOversub | knobDelay | knobFlowBytes | knobSeed},
	{def: Spec{Kind: KindMixed, Topo: fatTree(4), Load: 0.3, Seed: 1, DurationUs: 2000,
		Workload: WorkloadSpec{CDF: "websearch", Fanout: 8, FlowBytes: 64_000, BurstEveryUs: 500}},
		free: knobRate | knobDuration | knobK | knobOversub | knobDelay | knobCDF | knobLoad | knobSeed |
			knobFanout | knobFlowBytes | knobBurstEvery},
	{def: Spec{Kind: KindNotify, Topo: chain(2), Hop: "last", DurationUs: 600},
		free: knobRate | knobDuration | knobHop},
}

// rowOf returns the kind's row, or nil for an unknown kind.
func rowOf(kind string) *kindRow {
	for i := range kindRows {
		if kindRows[i].def.Kind == kind {
			return &kindRows[i]
		}
	}
	return nil
}

// kindsWhere lists, in canonical order, the kinds whose row satisfies ok.
func kindsWhere(ok func(*kindRow) bool) []string {
	var out []string
	for i := range kindRows {
		if ok(&kindRows[i]) {
			out = append(out, kindRows[i].def.Kind)
		}
	}
	return out
}

// Kinds lists every runnable scenario kind in canonical order.
func Kinds() []string { return kindsWhere(func(*kindRow) bool { return true }) }

// Simulation backends: which engine executes the spec.
const (
	// BackendPacket is the full per-packet event simulation (the default).
	BackendPacket = "packet"
	// BackendFluid is the flow-level max-min fluid approximation
	// (internal/fluid): milliseconds per point instead of minutes, FCT
	// metrics only. Supported for the FCT-style kinds; kinds whose metrics
	// are inherently packet-level (queues, PFC, pacing-rate timelines)
	// reject it at validation.
	BackendFluid = "fluid"
)

// Backends lists the simulation backends in canonical order.
func Backends() []string { return []string{BackendPacket, BackendFluid} }

// FluidSchemeCCKey is the one cc override the fluid backend consumes: the
// rate-convergence time constant in units of the fabric base RTT (0 = the
// idealized instant max-min baseline). All packet-level scheme parameters
// are rejected under the fluid backend — it would silently ignore them.
const FluidSchemeCCKey = "fluid_tau_rtts"

// TopoSpec declares the fabric.
type TopoSpec struct {
	// Kind is "chain" or "fattree".
	Kind string `json:"kind,omitempty"`
	// Switches is the chain length M.
	Switches int `json:"switches,omitempty"`
	// Senders is the chain sender count.
	Senders int `json:"senders,omitempty"`
	// K is the fat-tree arity (k^3/4 hosts).
	K int `json:"k,omitempty"`
	// RateGbps is the uniform link rate in Gbit/s.
	RateGbps int64 `json:"rate_gbps,omitempty"`
	// Oversub oversubscribes the fat-tree core: agg-core links run at
	// RateGbps/Oversub. Zero or 1 keeps the paper's 1:1 fabric.
	Oversub float64 `json:"oversub,omitempty"`
	// DelayNs is the per-link propagation delay in nanoseconds.
	DelayNs int64 `json:"delay_ns,omitempty"`
}

// RateBps converts the declared link rate to bit/s.
func (t TopoSpec) RateBps() int64 { return t.RateGbps * 1e9 }

// CoreRateBps resolves the fat-tree aggregation-core link rate under the
// declared oversubscription; zero means 1:1 (the topo builder's default).
func (t TopoSpec) CoreRateBps() int64 {
	if t.Oversub > 1 {
		return int64(float64(t.RateBps()) / t.Oversub)
	}
	return 0
}

// Delay converts the declared propagation delay to simulation time.
func (t TopoSpec) Delay() sim.Time { return sim.Time(t.DelayNs) * sim.Nanosecond }

// WorkloadSpec declares the traffic the scenario offers.
type WorkloadSpec struct {
	// CDF names the flow-size distribution of the Poisson arrivals
	// ("websearch" | "hadoop").
	CDF string `json:"cdf,omitempty"`
	// FlowBytes is the per-flow transfer size of the fixed-size patterns.
	FlowBytes int64 `json:"flow_bytes,omitempty"`
	// Fanout is the incast width.
	Fanout int `json:"fanout,omitempty"`
	// Shift is the permutation destination offset; zero means hosts/2
	// (maximally cross-pod).
	Shift int `json:"shift,omitempty"`
	// StaggerUs is the join/leave spacing in microseconds.
	StaggerUs int64 `json:"stagger_us,omitempty"`
	// BurstEveryUs is the incast burst period in microseconds.
	BurstEveryUs int64 `json:"burst_every_us,omitempty"`
}

// Spec is one declarative experiment. The zero values of most fields are
// filled by Normalized from the kind's row in kindRows, which also says which
// fields a spec of the kind may set; Name is descriptive only and excluded
// from the content hash so renames never invalidate cached results.
type Spec struct {
	// Name labels the scenario in tables and the registry.
	Name string `json:"name,omitempty"`
	// Kind selects the runner (see Kinds).
	Kind string `json:"kind"`
	// Backend selects the simulation engine: "packet" (default, omitted
	// from the canonical encoding) or "fluid". The backend is part of the
	// content hash, so packet and fluid results never share a cache entry.
	Backend string `json:"backend,omitempty"`
	// Scheme is the congestion-control scheme under test (exp registry name).
	Scheme string `json:"scheme"`
	// CC overrides scheme parameters by name: alpha, beta, table_update_us
	// (FNCC variants); eta, max_stage, wai_bytes, min_wnd_bytes (FNCC
	// variants and HPCC); on the fluid backend only fluid_tau_rtts.
	CC map[string]float64 `json:"cc,omitempty"`
	// Topo declares the fabric.
	Topo TopoSpec `json:"topo"`
	// Workload declares the offered traffic.
	Workload WorkloadSpec `json:"workload"`
	// Load is the target average access-link load of the Poisson arrivals.
	Load float64 `json:"load,omitempty"`
	// Seed drives workload generation and fabric randomness.
	Seed int64 `json:"seed,omitempty"`
	// DurationUs bounds the run: an observation window, an arrival horizon
	// or a completion deadline, as the kind's runner reads it.
	DurationUs int64 `json:"duration_us,omitempty"`
	// Hop is the congestion position: first|middle|last.
	Hop string `json:"hop,omitempty"`
	// Telemetry opts the run into in-simulation probes and event tracing.
	// Nil (or an all-zero block) means off. Probes only observe, so like
	// Name the block stays out of the canonical encoding and the hash: a
	// spec with telemetry hashes as the one without it. The harness never
	// caches such a run; it simulates it and checks it against the plain
	// entry (harness.Runner).
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
	// Workers partitions the packet engine's network (internal/netsim):
	// values > 1 run it as LP shards on that many worker goroutines; 0 or 1
	// leave it the one shard it starts as. Sharded runs are bit-identical
	// to that one ("serial"), so 0 and 1 normalize to the
	// omitted zero value and leave the canonical encoding — and therefore
	// the cache hash — unchanged. Workers > 1 does enter the hash: a
	// sharded run emits extra execution metrics (parallel_*), so it keeps
	// a distinct cache identity.
	Workers int `json:"workers,omitempty"`
}

// TelemetrySpec is the spec-level telemetry block (see internal/telemetry).
type TelemetrySpec struct {
	// IntervalUs is the sampling period in microseconds.
	IntervalUs int64 `json:"interval_us,omitempty"`
	// Probes selects the probe classes to sample; the backend's supported
	// set is enforced at validation (packet: queue, switch, host, cc;
	// fluid: rate, link).
	Probes []string `json:"probes,omitempty"`
	// TraceCap bounds the event flight-recorder (packet backend only).
	TraceCap int `json:"trace_cap,omitempty"`
}

// Config converts the block to the runtime telemetry configuration.
func (t *TelemetrySpec) Config() *telemetry.Config {
	if t == nil {
		return nil
	}
	return &telemetry.Config{
		Interval: sim.Time(t.IntervalUs) * sim.Microsecond,
		Probes:   t.Probes,
		TraceCap: t.TraceCap,
	}
}

// SupportedProbes returns the probe classes the spec's backend can sample
// (used by `fnccbench show` and telemetry validation).
func (s Spec) SupportedProbes() []string {
	if s.BackendName() == BackendFluid {
		return telemetry.FluidProbes()
	}
	return telemetry.PacketProbes()
}

// DefaultTelemetry is the block `fnccbench sweep -telemetry` gives a point
// that has none: every probe class the backend supports at a 10 us cadence,
// plus a bounded event trace on the packet backend (serial only — the
// flight recorder is not shard-aware, and validation rejects it under
// workers > 1).
func (s Spec) DefaultTelemetry() *TelemetrySpec {
	t := &TelemetrySpec{IntervalUs: 10, Probes: s.SupportedProbes()}
	if s.BackendName() != BackendFluid && s.Workers <= 1 {
		t.TraceCap = 4096
	}
	return t
}

// Duration converts DurationUs to simulation time.
func (s Spec) Duration() sim.Time { return sim.Time(s.DurationUs) * sim.Microsecond }

// BackendName resolves the effective backend: the zero value means packet.
func (s Spec) BackendName() string {
	if s.Backend == "" {
		return BackendPacket
	}
	return s.Backend
}

// Normalized returns a copy with every defaultable field filled and each cc
// value in its one spelling (normalizeCC), so specs that mean the same
// experiment encode (and hash) identically. It checks nothing: Normalize is
// Normalized plus validation.
func (s Spec) Normalized() Spec {
	n := s
	if n.Backend == BackendPacket {
		n.Backend = "" // packet is the zero value: default specs keep
		// their pre-backend canonical encoding and hash, so existing
		// result caches stay valid.
	}
	if n.Workers == 1 {
		n.Workers = 0 // one worker is one shard, the default: hash-neutral
	}
	if n.Topo.Oversub == 1 {
		n.Topo.Oversub = 0 // 1:1 is the zero value
	}
	if r := rowOf(n.Kind); r != nil {
		n.fill(r)
	}
	n.normalizeCC()
	if t := n.Telemetry; t != nil && t.IntervalUs == 0 && len(t.Probes) == 0 && t.TraceCap == 0 {
		n.Telemetry = nil // an all-zero block is off
	}
	return n
}

// normalizeCC writes -0 as 0 and drops each key whose value leaves the
// scheme's default on the backend unchanged (atDefault), so a cc value
// spelled at its default hashes as the spec without it. Any other key stays
// for validation to judge. It copies the map only when it changes it, and an
// empty map becomes nil.
func (n *Spec) normalizeCC() {
	var out map[string]float64
	for k, v := range n.CC {
		drop := atDefault(n.Scheme, n.Backend, k, v)
		if !drop && (v != 0 || !math.Signbit(v)) {
			continue
		}
		if out == nil {
			out = maps.Clone(n.CC)
		}
		if drop {
			delete(out, k)
		} else {
			out[k] = 0
		}
	}
	if out != nil {
		n.CC = out
	}
	if len(n.CC) == 0 {
		n.CC = nil
	}
}

// fill sets each zero knob of n to the row's default and returns the fixed
// knobs that hold another value. Validate refuses those: such a value would
// be ignored or break the kind's fixed setup, and would mint a fresh cache
// identity either way.
func (n *Spec) fill(r *kindRow) knobs {
	d, fr := &r.def, r.free
	return fillKnob(&n.Topo.Kind, d.Topo.Kind, knobTopoKind, fr) |
		fillKnob(&n.Seed, d.Seed, knobSeed, fr) |
		fillKnob(&n.Load, d.Load, knobLoad, fr) |
		fillKnob(&n.Hop, d.Hop, knobHop, fr) |
		fillKnob(&n.Topo.Senders, d.Topo.Senders, knobSenders, fr) |
		fillKnob(&n.Topo.K, d.Topo.K, knobK, fr) |
		fillKnob(&n.Topo.Switches, d.Topo.Switches, knobSwitches, fr) |
		fillKnob(&n.Topo.Oversub, d.Topo.Oversub, knobOversub, fr) |
		fillKnob(&n.Workload.CDF, d.Workload.CDF, knobCDF, fr) |
		fillKnob(&n.Workload.FlowBytes, d.Workload.FlowBytes, knobFlowBytes, fr) |
		fillKnob(&n.Workload.Fanout, d.Workload.Fanout, knobFanout, fr) |
		fillKnob(&n.Workload.Shift, d.Workload.Shift, knobShift, fr) |
		fillKnob(&n.Workload.StaggerUs, d.Workload.StaggerUs, knobStagger, fr) |
		fillKnob(&n.Workload.BurstEveryUs, d.Workload.BurstEveryUs, knobBurstEvery, fr) |
		fillKnob(&n.DurationUs, d.DurationUs, knobDuration, fr) |
		fillKnob(&n.Topo.DelayNs, d.Topo.DelayNs, knobDelay, fr) |
		fillKnob(&n.Topo.RateGbps, d.Topo.RateGbps, knobRate, fr)
}

// fillKnob sets a zero *p to def, and returns k if free lacks it and *p is
// not def.
func fillKnob[T comparable](p *T, def T, k, free knobs) knobs {
	var zero T
	if *p == zero {
		*p = def
	}
	if !free.has(k) && *p != def {
		return k
	}
	return 0
}

// SizeDim is the kind's natural scale dimension, which a sweep grid's sizes
// set and an export row reports, and the field's JSON name: the first of the
// fat-tree arity, the sender count and the fanout that the kind leaves free. Nil
// and "" for hop and notify, whose two senders are fixed.
func (s *Spec) SizeDim() (*int, string) {
	r := rowOf(s.Kind)
	switch {
	case r == nil:
	case r.free.has(knobK):
		return &s.Topo.K, "topo.k"
	case r.free.has(knobSenders):
		return &s.Topo.Senders, "topo.senders"
	case r.free.has(knobFanout):
		return &s.Workload.Fanout, "workload.fanout"
	}
	return nil, ""
}

// Hosts is how many hosts the spec's fabric has: k^3/4 on a fat-tree, the
// senders plus the receiver on a chain. It saturates at math.MaxInt instead
// of wrapping, so no value of the size dimension slips under a bound.
func (s Spec) Hosts() int { return s.Normalized().hosts() }

// hosts is Hosts of a normalized spec.
func (n Spec) hosts() int {
	dim, _ := n.SizeDim()
	onFatTree := dim == &n.Topo.K
	switch {
	case dim == nil:
		return 3 // hop, notify: two senders and the receiver
	case onFatTree && *dim <= 1<<20:
		// In int64: k^3 passes a 32-bit int from k = 1,291 on.
		if h := int64(*dim) * int64(*dim) * int64(*dim) / 4; h <= math.MaxInt {
			return int(h)
		}
	case !onFatTree && *dim < math.MaxInt:
		return *dim + 1
	}
	return math.MaxInt
}

// maxHosts and maxSpecFlows bound what a spec alone makes a run allocate, so
// a request of a few dozen bytes cannot take a server's memory. 8,192 hosts
// is the k = 32 fat-tree, the largest any registry entry, test or bench
// workload builds (on a chain, 8,191 senders); 2^20 flows admits alltoall up
// to k = 16.
//
// maxPoissonFlows bounds the Poisson arrivals of fct and mixed, which
// buildFlowSet also writes up front, at their expected number hosts × load ×
// rate × duration / (8 × CDF mean). The largest FCT point served is the k = 16
// fat-tree (1,024 hosts) at the default 2 ms on 100 Gb/s links: FB_Hadoop's
// ~10.6 KB mean gives 1,024 × 100e9 / (8 × 10.6e3) × 2e-3 ≈ 2.4e6 arrivals at
// full load, and 2^22 ≈ 4.2e6 leaves room above that. The fluid run of that
// point at load 0.5 (1.2e6 arrivals) holds about 406 MB resident, ~340 bytes
// per arrival, so the bound is about 1.4 GB.
const (
	maxHosts        = 8192
	maxSpecFlows    = 1 << 20
	maxPoissonFlows = 1 << 22
)

// specFlows is how many flows buildFlowSet writes from the spec alone for the
// kinds that may write more than one per host — every other kind's count is
// bounded by maxHosts, and the Poisson arrivals by maxPoissonFlows —
// saturating at math.MaxInt. Runs on a normalized spec whose knobs are known
// positive.
func (n Spec) specFlows(hosts int) int {
	switch n.Kind {
	case KindAllToAll:
		return hosts * (hosts - 1)
	case KindMixed:
		bursts := (n.DurationUs - 1) / n.Workload.BurstEveryUs
		if bursts > int64(math.MaxInt/n.Workload.Fanout) {
			return math.MaxInt
		}
		return int(bursts) * n.Workload.Fanout
	}
	return 0
}

// Norm is a normalized spec that validated. Normalize is the only way to
// make one, so a Norm's methods never normalize or check again.
type Norm struct{ s Spec }

// Normalize fills the spec's defaults (Normalized) and checks the result for
// runnability: the one validator, so callers may pass sparse specs.
func (s Spec) Normalize() (Norm, error) {
	n := s.Normalized()
	if err := n.validate(); err != nil {
		return Norm{}, err
	}
	return Norm{n}, nil
}

// Validate is Normalize without the Norm.
func (s Spec) Validate() error {
	_, err := s.Normalize()
	return err
}

// Spec returns the normalized spec, Name kept.
func (n Norm) Spec() Spec { return n.s }

// validate checks a normalized spec.
func (n Spec) validate() error {
	r := rowOf(n.Kind)
	if r == nil {
		return fmt.Errorf("scenario: unknown kind %q (have %v)", n.Kind, Kinds())
	}
	switch n.Backend {
	case "": // packet (normalized zero value)
		if _, err := schemeRow(n.Scheme, n.CC); err != nil {
			return err
		}
	case BackendFluid:
		if !r.fluid {
			return fmt.Errorf("scenario: kind %q is inherently packet-level; backend %q supports %v",
				n.Kind, BackendFluid, kindsWhere(func(row *kindRow) bool { return row.fluid }))
		}
		// The fluid backend runs a scheme as its convergence model alone,
		// so the scheme must have one, and packet-level cc overrides are
		// meaningless here: silently ignoring them would mint a distinct
		// cache identity for an unchanged experiment.
		if _, err := fluid.ModelFor(n.Scheme, 0); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		for k := range n.CC {
			if k != FluidSchemeCCKey {
				return fmt.Errorf("scenario: backend %q accepts only the %q cc override, got %q",
					BackendFluid, FluidSchemeCCKey, k)
			}
		}
	default:
		return fmt.Errorf("scenario: unknown backend %q (have %v)", n.Backend, Backends())
	}
	// n is filled already, so this only finds fixed knobs moved off def.
	if moved := n.fill(r); moved != 0 {
		k := knobTable[moved.first()]
		return fmt.Errorf("scenario: kind %q fixes %s at %#v; leave it unset", n.Kind, k.name, k.of(&r.def))
	}
	if err := n.validateFree(r.free); err != nil {
		return err
	}
	// The fabric builders read a zero core rate as 1:1, so a factor that
	// truncates it to 0 bps would simulate an unoversubscribed fabric under
	// this spec's hash.
	if n.Topo.Oversub > 1 && n.Topo.CoreRateBps() == 0 {
		return fmt.Errorf("scenario: oversubscription factor %v leaves the %d Gbps core links under 1 bps",
			n.Topo.Oversub, n.Topo.RateGbps)
	}
	for k, v := range n.CC {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario: cc override %q = %v is not finite", k, v)
		}
		// Unknown keys are BuildScheme's and the fluid check's to refuse.
		if o, ok := ccOverrides[k]; ok && !o.ok(v) {
			return fmt.Errorf("scenario: cc override %q = %v must be %s", k, v, o.want)
		}
	}
	if n.Telemetry != nil {
		if err := n.Telemetry.Config().Validate(n.SupportedProbes()); err != nil {
			return fmt.Errorf("scenario: backend %q: %w", n.BackendName(), err)
		}
		if n.BackendName() == BackendFluid && n.Telemetry.TraceCap != 0 {
			return fmt.Errorf("scenario: event tracing is packet-level; backend %q rejects trace_cap",
				BackendFluid)
		}
	}
	if n.Workers < 0 {
		return fmt.Errorf("scenario: negative workers %d", n.Workers)
	}
	if n.Workers > 1 {
		if n.BackendName() == BackendFluid {
			return fmt.Errorf("scenario: workers selects the packet engine's parallel executor; backend %q rejects it",
				BackendFluid)
		}
		if n.Telemetry != nil && n.Telemetry.TraceCap != 0 {
			return fmt.Errorf("scenario: event tracing (trace_cap) is unsupported under the parallel executor (workers=%d)",
				n.Workers)
		}
	}
	// The size bounds come before anything is sized by the host count.
	hosts := n.hosts()
	if hosts > maxHosts {
		dim, name := n.SizeDim()
		return fmt.Errorf("scenario: %s = %d builds more than %d hosts", name, *dim, maxHosts)
	}
	if n.specFlows(hosts) > maxSpecFlows {
		return fmt.Errorf("scenario: kind %q writes more than %d flows", n.Kind, maxSpecFlows)
	}
	// Patterns that must fit the fabric's hosts.
	if n.Kind == KindPermutation && n.Workload.Shift != 0 && n.Workload.Shift%hosts == 0 {
		return fmt.Errorf("scenario: permutation shift %d maps the %d hosts to themselves", n.Workload.Shift, hosts)
	}
	if n.Kind == KindMixed && n.Workload.Fanout >= hosts {
		return fmt.Errorf("scenario: mixed fanout %d needs < %d hosts", n.Workload.Fanout, hosts)
	}
	if err := n.validateRanges(); err != nil {
		return err
	}
	// Counted last: the host count is bounded and the link rate and horizon
	// are in range by now. A float, so no product wraps.
	if r.free.has(knobCDF) {
		cdf, _ := workload.ByName(n.Workload.CDF) // validateFree checked the name
		arrivals := workload.ArrivalRate(hosts, n.Load, n.Topo.RateBps(), cdf) * float64(n.DurationUs) / 1e6
		if arrivals > maxPoissonFlows {
			return fmt.Errorf("scenario: kind %q expects %.3g Poisson arrivals, more than %d; lower duration_us, load or topo.k",
				n.Kind, arrivals, maxPoissonFlows)
		}
	}
	return nil
}

// validateFree holds each knob a spec of the kind may set to the values its
// runner is defined on. Runs on a normalized spec, where each fixed knob
// holds its default.
func (n Spec) validateFree(free knobs) error {
	w := n.Workload
	switch {
	case free.has(knobK) && (n.Topo.K < 2 || n.Topo.K%2 != 0):
		return fmt.Errorf("scenario: fat-tree arity %d must be even and >= 2", n.Topo.K)
	case n.Topo.RateGbps <= 0:
		return fmt.Errorf("scenario: non-positive link rate %d Gbps", n.Topo.RateGbps)
	// Inverted comparison so NaN fails the check; +Inf is refused apart
	// because it is >= 1. Either would reach the encoding panic in Hash.
	case n.Topo.Oversub != 0 && !(n.Topo.Oversub >= 1) || math.IsInf(n.Topo.Oversub, 0):
		return fmt.Errorf("scenario: oversubscription factor %v must be finite and >= 1", n.Topo.Oversub)
	case free.has(knobLoad) && !(n.Load > 0 && n.Load <= 1):
		return fmt.Errorf("scenario: load %v out of (0,1]", n.Load)
	case free.has(knobHop) && n.Hop != "first" && n.Hop != "middle" && n.Hop != "last":
		return fmt.Errorf("scenario: hop position %q not in first|middle|last", n.Hop)
	case free.has(knobFanout) && w.Fanout < 2:
		return fmt.Errorf("scenario: fanout %d must be >= 2", w.Fanout)
	case free.has(knobDuration) && n.DurationUs <= 0:
		return fmt.Errorf("scenario: non-positive duration %dus", n.DurationUs)
	case free.has(knobStagger) && w.StaggerUs <= 0:
		return fmt.Errorf("scenario: non-positive stagger %dus", w.StaggerUs)
	case free.has(knobSenders) && n.Topo.Senders < 2:
		return fmt.Errorf("scenario: kind %q needs >= 2 senders, got %d", n.Kind, n.Topo.Senders)
	case free.has(knobDelay) && n.Topo.DelayNs < 0:
		return fmt.Errorf("scenario: negative topo.delay_ns %d", n.Topo.DelayNs)
	case free.has(knobFlowBytes) && w.FlowBytes <= 0:
		return fmt.Errorf("scenario: non-positive flow_bytes %d", w.FlowBytes)
	case free.has(knobShift) && w.Shift < 0:
		return fmt.Errorf("scenario: negative permutation shift %d", w.Shift)
	case free.has(knobBurstEvery) && w.BurstEveryUs <= 0:
		return fmt.Errorf("scenario: non-positive burst period %dus", w.BurstEveryUs)
	case free.has(knobSeed) && n.Seed < 0:
		return fmt.Errorf("scenario: negative seed %d", n.Seed)
	}
	if free.has(knobCDF) {
		if _, ok := workload.ByName(w.CDF); !ok {
			return fmt.Errorf("scenario: unknown workload CDF %q (have %v)", w.CDF, workload.Names())
		}
	}
	return nil
}

// validateRanges rejects integer knobs whose value in picoseconds or bit/s
// does not fit in int64. Converted, such a knob wraps: a horizon goes negative
// or shrinks, a delay goes negative, a rate non-positive, and the run panics
// or simulates something else under this spec's hash. Runs after
// validateFree, so the fairness senders count is known to be at least 2.
func (n Spec) validateRanges() error {
	type knob struct {
		name    string
		v, unit int64
	}
	knobs := []knob{
		{"duration_us", n.DurationUs, int64(sim.Microsecond)},
		{"workload.stagger_us", n.Workload.StaggerUs, int64(sim.Microsecond)},
		{"workload.burst_every_us", n.Workload.BurstEveryUs, int64(sim.Microsecond)},
		{"topo.delay_ns", n.Topo.DelayNs, int64(sim.Nanosecond)},
		{"topo.rate_gbps", n.Topo.RateGbps, 1e9},
	}
	if n.Telemetry != nil {
		knobs = append(knobs, knob{"telemetry.interval_us", n.Telemetry.IntervalUs, int64(sim.Microsecond)})
	}
	for _, k := range knobs {
		if limit := math.MaxInt64 / k.unit; k.v > limit || k.v < -limit {
			return fmt.Errorf("scenario: %s = %d is out of range (|value| <= %d)", k.name, k.v, limit)
		}
	}
	if n.Kind == KindFairness {
		// The run lasts 2·senders·stagger, and each flow is sized to its fair
		// share of senders windows of one stagger at line rate.
		senders := int64(n.Topo.Senders)
		if limit := math.MaxInt64 / int64(sim.Microsecond) / 2 / senders; n.Workload.StaggerUs > limit {
			return fmt.Errorf("scenario: workload.stagger_us = %d makes the %d-sender fairness run overflow (stagger_us <= %d)",
				n.Workload.StaggerUs, senders, limit)
		}
		stagger := sim.Time(n.Workload.StaggerUs) * sim.Microsecond
		if float64(n.Topo.RateBps())/8*stagger.Seconds()*float64(senders) >= math.MaxInt64 {
			return fmt.Errorf("scenario: workload.stagger_us = %d at %d Gbps makes the fairness flows larger than int64 bytes",
				n.Workload.StaggerUs, n.Topo.RateGbps)
		}
	}
	return nil
}

// in reports whether kind is one of kinds.
func in(kind string, kinds ...string) bool { return slices.Contains(kinds, kind) }

// cacheEpoch folds the simulator's behavioral version into every spec
// hash. Bump it whenever simulation semantics change (CC algorithms,
// topology wiring, workload generation, metric definitions) so stale
// harness caches invalidate instead of silently serving pre-change
// numbers.
//
// v2: the event engine adopted the canonical (at, schedAt, key, seq)
// collision order — simultaneous link deliveries fire in port-UID order
// instead of historical scheduling order (the invariant that makes the
// LP-sharded parallel executor bit-identical to serial). Collision
// instants are rare but real: one golden micro metric moved, so v1
// caches would serve stale numbers.
const cacheEpoch = "fncc-scenario-v2\n"

// goldensAtEpoch checks cacheEpoch instead of trusting it: the epoch as of
// the last record, and per golden table in testdata/ the first 16 hex digits
// of the SHA-256 of its lines, the spec hash lines ("hash sc-…") left out
// because they carry the epoch. TestCacheEpochCoversGoldens recomputes the
// digests and fails, naming the table, when one moved while cacheEpoch did
// not: bump cacheEpoch and record the new epoch and digests here. (A table
// that only gained rows, only lost "<key> present" lines — a key no run
// emits any more, every pinned number unchanged — or whose moved rows each
// carry a new spec hash, so no cached hash reads a new number, may be
// re-recorded without a bump.)
var goldensAtEpoch = struct {
	epoch   string
	digests map[string]string
}{
	epoch: "fncc-scenario-v2\n",
	digests: map[string]string{
		"golden_chain_kinds.txt": "213ad9017555e9c5",
		"golden_flow_kinds.txt":  "c259a24b9c132350",
		"golden_front_door.txt":  "61cd77cd46a3462b",
	},
}

// Canonical returns the canonical encoding: name and telemetry stripped,
// compact JSON, the bytes json.Marshal writes for the normalized spec
// (written by appendCanonical). Struct fields come in declaration order and
// map keys sort, so the bytes are deterministic across runs and platforms.
func (n Norm) Canonical() []byte { return n.s.appendCanonical(nil) }

// Hash is the stable content hash of the canonical encoding (salted with
// cacheEpoch), the key the harness caches results under. Specs differing
// only by Name or Telemetry collide by design.
func (n Norm) Hash() string { return n.s.hash() }

// AppendHash appends Hash to dst.
func (n Norm) AppendHash(dst []byte) []byte { return n.s.appendHash(dst) }

// Hash is the hash of the normalized spec: Norm.Hash, for a spec that
// validates.
func (s Spec) Hash() string { return s.Normalized().hash() }

// hash is Hash of a normalized spec. The returned string is its only
// allocation.
func (n Spec) hash() string {
	var id [19]byte // "sc-" and 16 hex digits
	return string(n.appendHash(id[:0]))
}

// appendHash appends the hash of a normalized spec to dst. It encodes into a
// stack buffer.
func (n Spec) appendHash(dst []byte) []byte {
	var buf [512]byte
	sum := sha256.Sum256(n.appendCanonical(append(buf[:0], cacheEpoch...)))
	return hex.AppendEncode(append(dst, "sc-"...), sum[:8])
}

// appendCanonical appends the canonical encoding of a normalized spec to dst.
func (n Spec) appendCanonical(dst []byte) []byte {
	n.Name = ""
	b, err := appendCanonical(dst, &n)
	if err != nil {
		// Validate rejects non-finite floats, the only way a Spec can
		// fail to encode.
		panic(fmt.Sprintf("scenario: canonical encoding failed: %v", err))
	}
	return b
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in spec
// files fail loudly instead of silently running defaults.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad spec: %w", err)
	}
	return s, nil
}
