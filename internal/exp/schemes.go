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

// NewScheme builds a scheme by name with the paper's default parameters.
func NewScheme(name string) (netsim.Scheme, error) {
	switch name {
	case SchemeFNCC:
		return core.NewScheme(core.DefaultConfig()), nil
	case SchemeFNCCNoLHCS:
		cfg := core.DefaultConfig()
		cfg.EnableLHCS = false
		s := core.NewScheme(cfg)
		s.Name = SchemeFNCCNoLHCS
		return s, nil
	case SchemeHPCC:
		return cc.NewHPCCScheme(cc.DefaultHPCCConfig()), nil
	case SchemeDCQCN:
		return cc.NewDCQCNScheme(cc.DefaultDCQCNConfig()), nil
	case SchemeRoCC:
		return cc.NewRoCCScheme(cc.DefaultRoCCConfig()), nil
	case SchemeTimely:
		return cc.NewTimelyScheme(cc.DefaultTimelyConfig()), nil
	case SchemeSwift:
		return cc.NewSwiftScheme(cc.DefaultSwiftConfig()), nil
	case SchemeExpressPass:
		return cc.NewExpressPassScheme(cc.DefaultExpressPassConfig()), nil
	default:
		return netsim.Scheme{}, fmt.Errorf("exp: unknown scheme %q (have %v)", name, []string{
			SchemeFNCC, SchemeFNCCNoLHCS, SchemeHPCC, SchemeDCQCN, SchemeRoCC,
			SchemeTimely, SchemeSwift, SchemeExpressPass})
	}
}

// MustScheme is NewScheme that panics on error.
func MustScheme(name string) netsim.Scheme {
	s, err := NewScheme(name)
	if err != nil {
		panic(err)
	}
	return s
}
