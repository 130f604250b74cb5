// Package harness turns declarative scenarios (internal/scenario) into
// sweeps: a grid over schemes × seeds × loads × topology sizes expands to
// one spec per point, the points of every sweep — RunAll's and the sweep
// service's — run on one kind of Pool that spends the GOMAXPROCS budget per
// job, a disk cache keyed by spec content hash makes re-runs and resumed
// sweeps near-free, and results export as aggregated JSON/CSV tables.
package harness

import (
	"fmt"
	"math"

	"repro/internal/scenario"
)

// Grid is the sweep dimensions. Empty dimensions keep the base spec's
// value; expansion order is schemes (outer) → backends → sizes → loads →
// seeds.
type Grid struct {
	// Schemes are congestion-control scheme names (exp registry).
	Schemes []string `json:"schemes,omitempty"`
	// Backends are simulation backends ("packet", "fluid"); sweeping both
	// runs every point twice, e.g. to quantify the fluid approximation
	// against packet ground truth across a whole grid.
	Backends []string `json:"backends,omitempty"`
	// Seeds repeat each point with different randomness.
	Seeds []int64 `json:"seeds,omitempty"`
	// Loads are target access-link loads for Poisson kinds.
	Loads []float64 `json:"loads,omitempty"`
	// Sizes scale the topology: fat-tree arity K for fat-tree kinds,
	// sender count for micro/fairness, fanout for incast.
	Sizes []int `json:"sizes,omitempty"`
}

// Points returns how many jobs the grid expands to, saturating at
// math.MaxInt: five dimensions of 10^4 entries each already multiply past
// int64.
func (g Grid) Points() int {
	n := 1
	for _, d := range []int{len(g.Schemes), len(g.Backends), len(g.Seeds), len(g.Loads), len(g.Sizes)} {
		if d > 0 {
			if n > math.MaxInt/d {
				return math.MaxInt
			}
			n *= d
		}
	}
	return n
}

// Sweep is a base scenario plus the grid swept over it.
type Sweep struct {
	Base scenario.Spec `json:"base"`
	Grid Grid          `json:"grid"`
}

// Expand produces one validated spec per grid point, in deterministic
// order.
func (s Sweep) Expand() ([]scenario.Spec, error) {
	schemes := s.Grid.Schemes
	if len(schemes) == 0 {
		schemes = []string{s.Base.Scheme}
	}
	backends := s.Grid.Backends
	if len(backends) == 0 {
		backends = []string{s.Base.Backend}
	}
	for _, size := range s.Grid.Sizes {
		if size < 1 {
			return nil, fmt.Errorf("harness: grid size %d must be >= 1", size)
		}
	}
	sizes := s.Grid.Sizes
	if len(sizes) == 0 {
		sizes = []int{0} // no sizes given: keep the base's
	}
	loads := s.Grid.Loads
	if len(loads) == 0 {
		loads = []float64{s.Base.Load}
	}
	seeds := s.Grid.Seeds
	if len(seeds) == 0 {
		seeds = []int64{s.Base.Seed}
	}
	var specs []scenario.Spec
	for _, scheme := range schemes {
		for _, backend := range backends {
			for _, size := range sizes {
				for _, load := range loads {
					for _, seed := range seeds {
						sp := s.Base
						sp.Scheme = scheme
						sp.Backend = backend
						sp.Load = load
						sp.Seed = seed
						if len(s.Grid.Sizes) > 0 {
							dim, _ := sp.SizeDim()
							if dim == nil {
								return nil, fmt.Errorf("harness: kind %q has no size dimension", sp.Kind)
							}
							*dim = size
						}
						if err := sp.Validate(); err != nil {
							return nil, fmt.Errorf("harness: grid point %s/%s: %w", scheme, sp.Kind, err)
						}
						specs = append(specs, sp)
					}
				}
			}
		}
	}
	return specs, nil
}
