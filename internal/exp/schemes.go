// Package exp is the seam between an experiment and the engine that runs
// it: the three Fabric implementations a set of flows can be offered to
// (packet fat-tree, packet chain — which also takes the sampler a chain
// figure folds its numbers with — and fluid) and the scheme registry. It
// has no per-figure code: internal/scenario writes each kind's flows and
// metric map and renders the Figs 14/15 tables, and DESIGN.md's experiment
// index maps each figure to its kind.
package exp

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/netsim"
)

// Canonical scheme names accepted by the registry.
const (
	SchemeFNCC       = "FNCC"
	SchemeFNCCNoLHCS = "FNCC-noLHCS"
	SchemeHPCC       = "HPCC"
	SchemeDCQCN      = "DCQCN"
	SchemeRoCC       = "RoCC"
	// SchemeTimely, SchemeSwift and SchemeExpressPass are extension
	// baselines (cited in the paper's related work but not part of its
	// evaluation).
	SchemeTimely      = "Timely"
	SchemeSwift       = "Swift"
	SchemeExpressPass = "ExpressPass"
)

// AllSchemes lists the four schemes of the paper's comparison.
func AllSchemes() []string {
	return []string{SchemeFNCC, SchemeHPCC, SchemeDCQCN, SchemeRoCC}
}

// SchemeRow is one registry scheme: its name, its builder and the cc keys
// the builder reads. The schemes differ only in the congestion signal their
// sender reacts to, so one core.Config carries every tunable a row reads:
// FNCC and FNCC-noLHCS read all of it, HPCC its HPCC part, and the rest
// build at their own defaults and read none.
type SchemeRow struct {
	Name string
	// Build constructs the scheme from cfg, reading only the fields Keys
	// name.
	Build func(cfg core.Config) netsim.Scheme
	// Keys lists, sorted, the cc override keys Build reads: HPCC's window
	// constants, LHCS's alpha and beta (FNCC-noLHCS never installs LHCS)
	// and the FNCC switches' table_update_us.
	Keys []string
}

// schemeRows is the registry, in the order an unknown name's error lists it.
var schemeRows = []SchemeRow{
	{SchemeFNCC, core.NewScheme,
		[]string{"alpha", "beta", "eta", "max_stage", "min_wnd_bytes", "table_update_us", "wai_bytes"}},
	{SchemeFNCCNoLHCS, func(cfg core.Config) netsim.Scheme {
		cfg.EnableLHCS = false
		s := core.NewScheme(cfg)
		s.Name = SchemeFNCCNoLHCS
		return s
	}, []string{"eta", "max_stage", "min_wnd_bytes", "table_update_us", "wai_bytes"}},
	{SchemeHPCC, func(cfg core.Config) netsim.Scheme { return cc.NewHPCCScheme(cfg.HPCC) },
		[]string{"eta", "max_stage", "min_wnd_bytes", "wai_bytes"}},
	{SchemeDCQCN, func(core.Config) netsim.Scheme { return cc.NewDCQCNScheme(cc.DefaultDCQCNConfig()) }, nil},
	{SchemeRoCC, func(core.Config) netsim.Scheme { return cc.NewRoCCScheme(cc.DefaultRoCCConfig()) }, nil},
	{SchemeTimely, func(core.Config) netsim.Scheme { return cc.NewTimelyScheme(cc.DefaultTimelyConfig()) }, nil},
	{SchemeSwift, func(core.Config) netsim.Scheme { return cc.NewSwiftScheme(cc.DefaultSwiftConfig()) }, nil},
	{SchemeExpressPass, func(core.Config) netsim.Scheme {
		return cc.NewExpressPassScheme(cc.DefaultExpressPassConfig())
	}, nil},
}

// Row returns the named scheme's registry row.
func Row(name string) (*SchemeRow, error) {
	for i := range schemeRows {
		if schemeRows[i].Name == name {
			return &schemeRows[i], nil
		}
	}
	return nil, fmt.Errorf("exp: unknown scheme %q (have %v)", name, Schemes())
}

// Schemes lists every registry scheme's name in registry order.
func Schemes() []string {
	names := make([]string, len(schemeRows))
	for i, r := range schemeRows {
		names[i] = r.Name
	}
	return names
}

// NewScheme builds a scheme by name with the paper's default parameters.
func NewScheme(name string) (netsim.Scheme, error) {
	r, err := Row(name)
	if err != nil {
		return netsim.Scheme{}, err
	}
	return r.Build(core.DefaultConfig()), nil
}

// MustScheme is NewScheme that panics on error.
func MustScheme(name string) netsim.Scheme {
	s, err := NewScheme(name)
	if err != nil {
		panic(err)
	}
	return s
}
