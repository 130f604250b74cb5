package workload

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// FlowSpec is one generated flow: who sends how much to whom, starting when.
type FlowSpec struct {
	ID        uint64
	SrcHost   int
	DstHost   int
	SizeBytes int64
	Start     sim.Time
}

// GenConfig parameterizes an open-loop Poisson workload over a host set.
type GenConfig struct {
	// Hosts is the number of end hosts; flows pick src != dst uniformly.
	Hosts int
	// AccessBps is the per-host access-link rate; with Load it fixes the
	// aggregate arrival rate.
	AccessBps int64
	// Load is the target average utilization of access links in (0, 1],
	// e.g. 0.5 for the paper's 50% runs.
	Load float64
	// CDF is the flow-size distribution.
	CDF *CDF
	// Horizon is the generation window: flows start in [0, Horizon).
	Horizon sim.Time
	// Seed drives all randomness for this workload.
	Seed int64
	// FirstID numbers the generated flows sequentially starting here.
	FirstID uint64
}

func (c *GenConfig) validate() error {
	switch {
	case c.Hosts < 2:
		return fmt.Errorf("workload: need >= 2 hosts, got %d", c.Hosts)
	case c.AccessBps <= 0:
		return fmt.Errorf("workload: non-positive access rate")
	case c.Load <= 0 || c.Load > 1:
		return fmt.Errorf("workload: load %v out of (0,1]", c.Load)
	case c.CDF == nil:
		return fmt.Errorf("workload: nil CDF")
	case c.Horizon <= 0:
		return fmt.Errorf("workload: non-positive horizon")
	}
	return nil
}

// ArrivalRate is the rate, in flows per second, of the Poisson arrivals
// whose expected per-host injected bit-rate equals load × accessBps:
//
//	λ_total = hosts × load × accessBps / (8 × E[size]).
func ArrivalRate(hosts int, load float64, accessBps int64, cdf *CDF) float64 {
	return float64(hosts) * load * float64(accessBps) / (8 * cdf.MeanBytes())
}

// Generate produces the flow arrivals for the whole fabric, sorted by start
// time. Arrivals form a Poisson process at ArrivalRate.
func Generate(cfg GenConfig) ([]FlowSpec, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	meanGapPs := float64(sim.Second) / ArrivalRate(cfg.Hosts, cfg.Load, cfg.AccessBps, cfg.CDF)

	// Room for the expected count plus four standard deviations (a Poisson
	// count's variance is its mean), so the list almost never regrows.
	expect := float64(cfg.Horizon) / meanGapPs
	flows := make([]FlowSpec, 0, int(expect+float64(4*math.Sqrt(expect)))+1)
	id := cfg.FirstID
	t := sim.Time(0)
	for {
		gap := sim.Time(rng.ExpFloat64() * meanGapPs)
		t += gap
		if t >= cfg.Horizon {
			break
		}
		src := rng.Intn(cfg.Hosts)
		dst := rng.Intn(cfg.Hosts - 1)
		if dst >= src {
			dst++
		}
		flows = append(flows, FlowSpec{
			ID:        id,
			SrcHost:   src,
			DstHost:   dst,
			SizeBytes: cfg.CDF.Sample(rng),
			Start:     t,
		})
		id++
	}
	return flows, nil
}

// TotalBytes sums the sizes of the generated flows.
func TotalBytes(flows []FlowSpec) int64 {
	var s int64
	for _, f := range flows {
		s += f.SizeBytes
	}
	return s
}

// OfferedLoad computes the realized average access-link load of a generated
// trace (for validating Generate against its target).
func OfferedLoad(flows []FlowSpec, hosts int, accessBps int64, horizon sim.Time) float64 {
	if horizon <= 0 || hosts == 0 {
		return 0
	}
	bits := float64(TotalBytes(flows)) * 8
	return bits / (float64(hosts) * float64(accessBps) * horizon.Seconds())
}
