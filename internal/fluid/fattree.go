package fluid

import "repro/internal/topo"

// FatTreeOpts is the packet engine's fat-tree description; Workers is
// ignored (the fluid engine runs one thread).
type FatTreeOpts = topo.FatTreeOpts

// NewFatTree builds the fluid fat-tree fabric. Wiring, path lengths, base
// RTT and the ECMP choice all come from o itself — the description
// topo.BuildFatTree builds the packet fabric from — so a given flow set
// crosses the same aggregation and core links under both backends. That
// shared placement is what lets small-scenario cross-validation compare
// like with like.
func NewFatTree(cfg Config, o FatTreeOpts) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	k := o.K
	half := k / 2
	hosts := k * k * k / 4
	// Directed link layout, in blocks of H = hosts and E = k*half*half:
	//   [0,H)          host access up (host → edge)
	//   [H,2H)         host access down (edge → host)
	//   [2H, 2H+E)     edge→agg up, index (pod*half+e)*half + a
	//   [2H+E, 2H+2E)  agg→edge down, same (pod, e, a) indexing
	//   [2H+2E, +E)    agg→core up, index (pod*half+a)*half + j
	//   [2H+3E, +E)    core→agg down, same (pod, a, j) indexing
	E := k * half * half
	upEA, downEA, upAC, downAC := 2*hosts, 2*hosts+E, 2*hosts+2*E, 2*hosts+3*E
	links := make([]float64, 2*hosts+4*E)
	for i := range links {
		links[i] = float64(o.RateBps)
		if i >= upAC {
			links[i] = float64(o.CoreRate())
		}
	}

	fb := &Fabric{
		Cfg:       cfg,
		LinkBps:   links,
		Hosts:     hosts,
		AccessBps: o.RateBps,
		Delay:     o.Delay,
		BaseRTT:   o.BaseRTT(cfg.MTUBytes),
		pathLinks: o.PathLinks,
	}
	fb.route = func(path []int32, id uint64, src, dst int) ([]int32, error) {
		se, de := src/half, dst/half // edge switch pod*half+e of each end
		if se == de {
			return append(path, int32(src), int32(hosts+dst)), nil
		}
		// Aggregation a of the pod at the edge, core a*half+a above it.
		a := o.Plane(id, src, dst)
		path = append(path, int32(src), int32(upEA+se*half+a))
		if sp, dp := se/half, de/half; sp != dp {
			path = append(path, int32(upAC+(sp*half+a)*half+a), int32(downAC+(dp*half+a)*half+a))
		}
		return append(path, int32(downEA+de*half+a), int32(hosts+dst)), nil
	}
	return fb, nil
}
