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
	"math"
	"sort"

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

// Kinds lists every runnable scenario kind in canonical order.
func Kinds() []string {
	return []string{KindMicro, KindHop, KindFairness, KindFCT, KindIncast,
		KindPermutation, KindAllToAll, KindMixed, KindNotify}
}

// chainKinds run on the dumbbell chain, fatTreeKinds on the fat-tree.
var (
	chainKinds   = map[string]bool{KindMicro: true, KindHop: true, KindFairness: true, KindIncast: true, KindNotify: true}
	fatTreeKinds = map[string]bool{KindFCT: true, KindPermutation: true, KindAllToAll: true, KindMixed: true}
)

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

// fluidKinds are the kinds the fluid backend can execute: their outputs are
// flow-completion statistics, which the fluid model approximates. The
// others measure queue dynamics, PFC or sub-RTT rate timelines that only
// the packet engine produces.
var fluidKinds = map[string]bool{
	KindFCT: true, KindIncast: true, KindPermutation: true, KindAllToAll: true,
}

// fluidKindNames lists the fluid-capable kinds in canonical kind order.
func fluidKindNames() []string {
	var out []string
	for _, k := range Kinds() {
		if fluidKinds[k] {
			out = append(out, k)
		}
	}
	return out
}

// FluidSchemeCCKey is the one cc override the fluid backend consumes: the
// rate-convergence time constant in units of the fabric base RTT (0 = the
// idealized instant max-min baseline). All packet-level scheme parameters
// are rejected under the fluid backend — it would silently ignore them.
const FluidSchemeCCKey = "fluid_tau_rtts"

// TopoSpec declares the fabric. Kind is derived from the scenario kind when
// empty ("chain" for micro/hop/notify/fairness/incast, "fattree" for the
// rest).
type TopoSpec struct {
	// Kind is "chain" or "fattree".
	Kind string `json:"kind,omitempty"`
	// Switches is the chain length M (default 3).
	Switches int `json:"switches,omitempty"`
	// Senders is the chain sender count (micro/fairness; default per kind).
	Senders int `json:"senders,omitempty"`
	// K is the fat-tree arity (default per kind; k^3/4 hosts).
	K int `json:"k,omitempty"`
	// RateGbps is the uniform link rate in Gbit/s (default 100).
	RateGbps int64 `json:"rate_gbps,omitempty"`
	// Oversub oversubscribes the fat-tree core: agg-core links run at
	// RateGbps/Oversub. Zero or 1 keeps the paper's 1:1 fabric.
	Oversub float64 `json:"oversub,omitempty"`
	// DelayNs is the per-link propagation delay (default 1500).
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
	// CDF names the flow-size distribution for Poisson kinds
	// ("websearch" | "hadoop").
	CDF string `json:"cdf,omitempty"`
	// FlowBytes is the per-flow transfer size for the fixed-size patterns
	// (incast, permutation, alltoall, mixed bursts).
	FlowBytes int64 `json:"flow_bytes,omitempty"`
	// Fanout is the incast width (incast, mixed bursts).
	Fanout int `json:"fanout,omitempty"`
	// Shift is the permutation destination offset; zero means hosts/2
	// (maximally cross-pod).
	Shift int `json:"shift,omitempty"`
	// StaggerUs is the fairness join/leave spacing in microseconds.
	StaggerUs int64 `json:"stagger_us,omitempty"`
	// BurstEveryUs is the mixed-kind incast period in microseconds.
	BurstEveryUs int64 `json:"burst_every_us,omitempty"`
}

// Spec is one declarative experiment. The zero values of most fields are
// filled by Normalized; Name is descriptive only and excluded from the
// content hash so renames never invalidate cached results.
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
	// Load is the target average access-link load for Poisson kinds.
	Load float64 `json:"load,omitempty"`
	// Seed drives workload generation and fabric randomness.
	Seed int64 `json:"seed,omitempty"`
	// DurationUs bounds the run: observation window (micro/hop/notify),
	// arrival horizon (fct/mixed) or completion deadline (incast/
	// permutation/alltoall). Fairness derives its span from StaggerUs instead.
	DurationUs int64 `json:"duration_us,omitempty"`
	// Hop is the congestion position for KindHop and KindNotify:
	// first|middle|last.
	Hop string `json:"hop,omitempty"`
	// Telemetry opts the run into in-simulation probes and event tracing.
	// Nil (or an all-zero block) means off and normalizes away, so specs
	// without telemetry keep their pre-telemetry canonical encoding and
	// hash. A configured block is part of the content hash: sampled runs
	// never share a cache entry with unsampled ones.
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

// Duration converts DurationUs to simulation time.
func (s Spec) Duration() sim.Time { return sim.Time(s.DurationUs) * sim.Microsecond }

// BackendName resolves the effective backend: the zero value means packet.
func (s Spec) BackendName() string {
	if s.Backend == "" {
		return BackendPacket
	}
	return s.Backend
}

// Normalized returns a copy with every defaultable field filled, so specs
// that mean the same experiment encode (and hash) identically.
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
	if n.Topo.Kind == "" {
		if fatTreeKinds[n.Kind] {
			n.Topo.Kind = "fattree"
		} else {
			n.Topo.Kind = "chain"
		}
	}
	if n.Topo.RateGbps == 0 {
		n.Topo.RateGbps = 100
	}
	if n.Topo.DelayNs == 0 {
		n.Topo.DelayNs = 1500
	}
	if n.Topo.Oversub == 1 {
		n.Topo.Oversub = 0 // 1:1 is the zero value
	}
	if n.Topo.Kind == "chain" && n.Topo.Switches == 0 {
		n.Topo.Switches = 3
	}
	switch n.Kind {
	case KindMicro:
		defInt(&n.Topo.Senders, 2)
		defInt64(&n.DurationUs, 1200)
	case KindHop:
		defInt(&n.Topo.Senders, 2)
		defInt64(&n.DurationUs, 800)
		if n.Hop == "" {
			n.Hop = "last"
		}
	case KindNotify:
		defInt(&n.Topo.Senders, 2)
		defInt64(&n.DurationUs, 600)
		if n.Hop == "" {
			n.Hop = "last"
		}
	case KindFairness:
		defInt(&n.Topo.Senders, 4)
		defInt64(&n.Workload.StaggerUs, 1000)
	case KindFCT:
		defInt(&n.Topo.K, 8)
		defStr(&n.Workload.CDF, "websearch")
		defFloat(&n.Load, 0.5)
		defInt64(&n.DurationUs, 2000)
		defInt64(&n.Seed, 1)
	case KindIncast:
		defInt(&n.Workload.Fanout, 16)
		defInt64(&n.Workload.FlowBytes, 2<<20)
		defInt64(&n.DurationUs, 100_000)
	case KindPermutation:
		defInt(&n.Topo.K, 8)
		defInt64(&n.Workload.FlowBytes, 1<<20)
		defInt64(&n.DurationUs, 50_000)
	case KindAllToAll:
		defInt(&n.Topo.K, 4)
		defInt64(&n.Workload.FlowBytes, 100_000)
		defInt64(&n.DurationUs, 50_000)
	case KindMixed:
		defInt(&n.Topo.K, 4)
		defStr(&n.Workload.CDF, "websearch")
		defFloat(&n.Load, 0.3)
		defInt(&n.Workload.Fanout, 8)
		defInt64(&n.Workload.FlowBytes, 64_000)
		defInt64(&n.Workload.BurstEveryUs, 500)
		defInt64(&n.DurationUs, 2000)
		defInt64(&n.Seed, 1)
	}
	if n.Telemetry != nil {
		t := *n.Telemetry // deep copy: Normalized must not alias the input
		if len(t.Probes) > 0 {
			ps := append([]string(nil), t.Probes...)
			sort.Strings(ps)
			w := 0
			for i, p := range ps {
				if i == 0 || p != ps[i-1] {
					ps[w] = p
					w++
				}
			}
			t.Probes = ps[:w]
		}
		if t.IntervalUs == 0 && len(t.Probes) == 0 && t.TraceCap == 0 {
			n.Telemetry = nil // all-zero block == off: hash as if absent
		} else {
			n.Telemetry = &t
		}
	}
	return n
}

func defInt(p *int, v int) {
	if *p == 0 {
		*p = v
	}
}

func defInt64(p *int64, v int64) {
	if *p == 0 {
		*p = v
	}
}

func defFloat(p *float64, v float64) {
	if *p == 0 {
		*p = v
	}
}

func defStr(p *string, v string) {
	if *p == "" {
		*p = v
	}
}

// SizeDim is the kind's natural scale dimension, which a sweep grid's sizes
// set and an export row reports, and the field's JSON name: the fat-tree
// arity for the fat-tree kinds, the sender count for micro and fairness, the
// fanout for incast. Nil and "" for hop and notify, whose two senders are
// fixed.
func (s *Spec) SizeDim() (*int, string) {
	switch {
	case fatTreeKinds[s.Kind]:
		return &s.Topo.K, "topo.k"
	case in(s.Kind, KindMicro, KindFairness):
		return &s.Topo.Senders, "topo.senders"
	case s.Kind == KindIncast:
		return &s.Workload.Fanout, "workload.fanout"
	}
	return nil, ""
}

// Hosts is how many hosts the spec's fabric has: k^3/4 on a fat-tree, the
// senders plus the receiver on a chain. It saturates at math.MaxInt instead
// of wrapping, so no value of the size dimension slips under a bound.
func (s Spec) Hosts() int {
	n := s.Normalized()
	dim, _ := n.SizeDim()
	switch {
	case dim == nil:
		return 3 // hop, notify: two senders and the receiver
	case fatTreeKinds[n.Kind] && *dim <= 1<<20:
		return *dim * *dim * *dim / 4
	case !fatTreeKinds[n.Kind] && *dim < math.MaxInt:
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

// Validate checks a spec for runnability. It normalizes first, so callers
// may validate sparse specs.
func (s Spec) Validate() error {
	n := s.Normalized()
	kindOK := false
	for _, k := range Kinds() {
		if n.Kind == k {
			kindOK = true
			break
		}
	}
	if !kindOK {
		return fmt.Errorf("scenario: unknown kind %q (have %v)", n.Kind, Kinds())
	}
	switch n.Backend {
	case "": // packet (normalized zero value)
		if _, err := BuildScheme(n.Scheme, n.CC); err != nil {
			return err
		}
	case BackendFluid:
		if !fluidKinds[n.Kind] {
			return fmt.Errorf("scenario: kind %q is inherently packet-level; backend %q supports %v",
				n.Kind, BackendFluid, fluidKindNames())
		}
		// The scheme name must exist (it selects the convergence model),
		// but packet-level cc overrides are meaningless here and silently
		// ignoring them would mint a distinct cache identity for an
		// unchanged experiment.
		if _, err := BuildScheme(n.Scheme, nil); err != nil {
			return err
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
	switch n.Topo.Kind {
	case "chain":
		if !chainKinds[n.Kind] {
			return fmt.Errorf("scenario: kind %q needs a fattree topology", n.Kind)
		}
		if n.Topo.Switches < 1 {
			return fmt.Errorf("scenario: chain needs >= 1 switch")
		}
	case "fattree":
		if !fatTreeKinds[n.Kind] {
			return fmt.Errorf("scenario: kind %q needs a chain topology", n.Kind)
		}
		if n.Topo.K < 2 || n.Topo.K%2 != 0 {
			return fmt.Errorf("scenario: fat-tree arity %d must be even and >= 2", n.Topo.K)
		}
	default:
		return fmt.Errorf("scenario: unknown topology kind %q", n.Topo.Kind)
	}
	if n.Topo.RateGbps <= 0 {
		return fmt.Errorf("scenario: non-positive link rate %d Gbps", n.Topo.RateGbps)
	}
	// Inverted comparison so NaN fails the check; +Inf is refused apart
	// because it is >= 1. Either would reach a json.Marshal panic in Hash.
	if n.Topo.Oversub != 0 && !(n.Topo.Oversub >= 1) || math.IsInf(n.Topo.Oversub, 0) {
		return fmt.Errorf("scenario: oversubscription factor %v must be finite and >= 1", n.Topo.Oversub)
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
	var cdf *workload.CDF
	if n.Kind == KindFCT || n.Kind == KindMixed {
		if !(n.Load > 0 && n.Load <= 1) {
			return fmt.Errorf("scenario: load %v out of (0,1]", n.Load)
		}
		var ok bool
		if cdf, ok = workload.ByName(n.Workload.CDF); !ok {
			return fmt.Errorf("scenario: unknown workload CDF %q (have %v)", n.Workload.CDF, workload.Names())
		}
	}
	if in(n.Kind, KindHop, KindNotify) {
		switch n.Hop {
		case "first", "middle", "last":
		default:
			return fmt.Errorf("scenario: hop position %q not in first|middle|last", n.Hop)
		}
	}
	if (n.Kind == KindIncast || n.Kind == KindMixed) && n.Workload.Fanout < 2 {
		return fmt.Errorf("scenario: fanout %d must be >= 2", n.Workload.Fanout)
	}
	if n.Kind != KindFairness && n.DurationUs <= 0 {
		return fmt.Errorf("scenario: non-positive duration %dus", n.DurationUs)
	}
	if n.Kind == KindFairness && n.Workload.StaggerUs <= 0 {
		return fmt.Errorf("scenario: non-positive stagger %dus", n.Workload.StaggerUs)
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
	if err := n.validateKnobUse(); err != nil {
		return err
	}
	if err := n.validateRanges(); err != nil {
		return err
	}
	// Counted last: the host count is bounded and the link rate and horizon
	// are in range by now. A float, so no product wraps.
	if cdf != nil {
		arrivals := workload.ArrivalRate(n.Hosts(), n.Load, n.Topo.RateBps(), cdf) * float64(n.DurationUs) / 1e6
		if arrivals > maxPoissonFlows {
			return fmt.Errorf("scenario: kind %q expects %.3g Poisson arrivals, more than %d; lower duration_us, load or topo.k",
				n.Kind, arrivals, maxPoissonFlows)
		}
	}
	return nil
}

// validateRanges rejects integer knobs whose value in picoseconds or bit/s
// does not fit in int64. Converted, such a knob wraps: a horizon goes negative
// or shrinks, a delay goes negative, a rate non-positive, and the run panics
// or simulates something else under this spec's hash. Runs after
// validateKnobUse, so the senders count is known to be at least 2.
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
func in(kind string, kinds ...string) bool {
	for _, k := range kinds {
		if kind == k {
			return true
		}
	}
	return false
}

// validateKnobUse rejects knobs the kind's runner does not consume. A spec
// claiming a fabric the simulation will not build must fail loudly: silently
// ignoring the field would both mislead the user and mint a fresh cache
// identity for an unchanged experiment. Runs on a normalized spec.
func (n Spec) validateKnobUse() error {
	ban := func(used bool, set bool, field string) error {
		if !used && set {
			return fmt.Errorf("scenario: kind %q does not use %s", n.Kind, field)
		}
		return nil
	}
	checks := []error{
		// Fabric randomness only feeds the fat-tree kinds (workload
		// generation and WRED); the chain runners are fully deterministic.
		ban(in(n.Kind, KindFCT, KindPermutation, KindAllToAll, KindMixed), n.Seed != 0, "seed"),
		ban(in(n.Kind, KindFCT, KindMixed), n.Load != 0, "load"),
		ban(in(n.Kind, KindHop, KindNotify), n.Hop != "", "hop"),
		ban(in(n.Kind, KindMicro, KindHop, KindNotify, KindFairness), n.Topo.Senders != 0, "topo.senders"),
		ban(fatTreeKinds[n.Kind], n.Topo.K != 0, "topo.k"),
		ban(chainKinds[n.Kind], n.Topo.Switches != 0, "topo.switches"),
		ban(fatTreeKinds[n.Kind], n.Topo.Oversub != 0, "topo.oversub"),
		ban(in(n.Kind, KindFCT, KindMixed), n.Workload.CDF != "", "workload.cdf"),
		ban(in(n.Kind, KindIncast, KindPermutation, KindAllToAll, KindMixed),
			n.Workload.FlowBytes != 0, "workload.flow_bytes"),
		ban(in(n.Kind, KindIncast, KindMixed), n.Workload.Fanout != 0, "workload.fanout"),
		ban(n.Kind == KindPermutation, n.Workload.Shift != 0, "workload.shift"),
		ban(n.Kind == KindFairness, n.Workload.StaggerUs != 0, "workload.stagger_us"),
		ban(n.Kind == KindMixed, n.Workload.BurstEveryUs != 0, "workload.burst_every_us"),
		ban(n.Kind != KindFairness, n.DurationUs != 0, "duration_us"),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	// Values the runners fix internally must match what will actually be
	// simulated.
	if chainKinds[n.Kind] && n.Topo.Switches != 3 {
		return fmt.Errorf("scenario: the chain runners fix topo.switches at 3, got %d", n.Topo.Switches)
	}
	if in(n.Kind, KindHop, KindNotify) && n.Topo.Senders != 2 {
		return fmt.Errorf("scenario: the hop runner fixes topo.senders at 2, got %d", n.Topo.Senders)
	}
	if in(n.Kind, KindMicro, KindFairness) && n.Topo.Senders < 2 {
		return fmt.Errorf("scenario: kind %q needs >= 2 senders, got %d", n.Kind, n.Topo.Senders)
	}
	if n.Topo.DelayNs < 0 {
		return fmt.Errorf("scenario: negative topo.delay_ns %d", n.Topo.DelayNs)
	}
	if !in(n.Kind, KindPermutation, KindAllToAll, KindMixed) && n.Topo.DelayNs != 1500 {
		return fmt.Errorf("scenario: kind %q fixes topo.delay_ns at 1500, got %d", n.Kind, n.Topo.DelayNs)
	}
	// Positivity of the pattern knobs (defaults fill zeros, so anything
	// non-positive here was set explicitly).
	if in(n.Kind, KindIncast, KindPermutation, KindAllToAll, KindMixed) && n.Workload.FlowBytes <= 0 {
		return fmt.Errorf("scenario: non-positive flow_bytes %d", n.Workload.FlowBytes)
	}
	if n.Kind == KindPermutation && n.Workload.Shift < 0 {
		return fmt.Errorf("scenario: negative permutation shift %d", n.Workload.Shift)
	}
	if n.Kind == KindMixed && n.Workload.BurstEveryUs <= 0 {
		return fmt.Errorf("scenario: non-positive burst period %dus", n.Workload.BurstEveryUs)
	}
	// The size bounds come before anything is sized by the host count.
	hosts := n.Hosts()
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
	if n.Seed < 0 {
		return fmt.Errorf("scenario: negative seed %d", n.Seed)
	}
	return nil
}

// Canonical returns the spec's canonical encoding: normalized, name
// stripped, compact JSON. Struct fields marshal in declaration order and
// map keys sort, so the bytes are deterministic across runs and platforms.
func (s Spec) Canonical() ([]byte, error) {
	n := s.Normalized()
	n.Name = ""
	return json.Marshal(n)
}

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
// that only gained rows, or only lost "<key> present" lines — a key no run
// emits any more, every pinned number unchanged — may be re-recorded without
// a bump.)
var goldensAtEpoch = struct {
	epoch   string
	digests map[string]string
}{
	epoch: "fncc-scenario-v2\n",
	digests: map[string]string{
		"golden_chain_kinds.txt": "700cc374f8a3c5c6",
		"golden_flow_kinds.txt":  "94de795b5b3655ea",
		"golden_front_door.txt":  "61cd77cd46a3462b",
	},
}

// Hash is the stable content hash of the canonical encoding (salted with
// cacheEpoch), the key the harness caches results under. Specs differing
// only by Name collide by design.
func (s Spec) Hash() string {
	b, err := s.Canonical()
	if err != nil {
		// Validate rejects non-finite floats, the only way a Spec can
		// fail to marshal.
		panic(fmt.Sprintf("scenario: canonical encoding failed: %v", err))
	}
	sum := sha256.Sum256(append([]byte(cacheEpoch), b...))
	return "sc-" + hex.EncodeToString(sum[:8])
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
