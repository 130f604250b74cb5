package main

import (
	"time"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
)

// layerLoops are small closed loops on single layers' public APIs. They do
// not depend on the workload, so every traced run reports the same loops
// and a layer's number can be read next to any workload's shares.
func layerLoops(m map[string]float64) error {
	m["sim.schedule_fire_ns"] = scheduleFireNs()
	m["sim.cancel_ns"] = cancelNs()
	m["packet.get_put_ns"] = getPutNs()
	m["scenario.validate_hash_us"] = validateHashUs()
	ns, err := oneHopNs()
	if err != nil {
		return err
	}
	m["netsim.onehop_ns_per_frame"] = ns
	s, err := buildChainSeconds()
	if err != nil {
		return err
	}
	m["topo.build_chain_s"] = s
	return nil
}

// calendarDepth is how many events sit in the engine's queue while the
// engine loops run: the depth of a busy fat-tree point.
const calendarDepth = 4096

func bump(v any) { *v.(*int)++ }

// scheduleFireNs is one AfterArg plus one Step at a steady queue depth.
func scheduleFireNs() float64 {
	const ops = 400_000
	e := sim.NewEngine()
	var fired int
	for i := 0; i < calendarDepth; i++ {
		e.AfterArg(sim.Time(i%1000+1), bump, &fired)
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		e.AfterArg(sim.Time(i%1000+1), bump, &fired)
		e.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / ops
}

// cancelNs is one AfterArg plus one Cancel at the same depth. Cancelled
// events are swept when the queue pops, so each batch ends with one Step
// that sweeps its tombstones and fires one far-future event, which is
// replaced to hold the depth.
func cancelNs() float64 {
	const ops, batch, far = 400_000, 1024, 1_000_000
	e := sim.NewEngine()
	var fired int
	for i := 0; i < calendarDepth; i++ {
		e.AfterArg(sim.Time(far+i), bump, &fired)
	}
	evs := make([]sim.Event, 0, batch)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		evs = append(evs, e.AfterArg(sim.Time(i%1000+1), bump, &fired))
		if len(evs) == batch {
			for _, ev := range evs {
				e.Cancel(ev)
			}
			evs = evs[:0]
			e.AfterArg(sim.Time(far+calendarDepth), bump, &fired)
			e.Step()
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / ops
}

// getPutNs is one Pool.Get plus one Pool.Put with 64 frames outstanding.
func getPutNs() float64 {
	const ops, window = 2_000_000, 64
	p := packet.NewPool()
	var ring [window]*packet.Packet
	for i := range ring {
		ring[i] = p.Get()
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		p.Put(ring[i%window])
		ring[i%window] = p.Get()
	}
	return float64(time.Since(t0).Nanoseconds()) / ops
}

// validateHashUs is Validate + Normalized + Hash of one sparse grid spec,
// what every sweep point pays before the cache is even looked at.
func validateHashUs() float64 {
	const ops = 2000
	sp := sweepGrid(1).Base
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		sp.Seed = int64(i + 1)
		if err := sp.Validate(); err != nil {
			return 0
		}
		_ = sp.Normalized().Hash()
	}
	return float64(time.Since(t0).Microseconds()) / ops
}

// oneHopNs sends one 64 MB FNCC flow across a 1-switch chain and divides
// the run's host time by the data frames it carried.
func oneHopNs() (float64, error) {
	const size = 64 << 20
	scheme, err := exp.NewScheme(exp.SchemeFNCC)
	if err != nil {
		return 0, err
	}
	opts := topo.DefaultChainOpts(1)
	opts.Switches = 1
	c, err := topo.BuildChain(netsim.DefaultConfig(), scheme, opts)
	if err != nil {
		return 0, err
	}
	c.AddFlow(1, 0, size, 0)
	t0 := time.Now()
	c.Net.RunToCompletion(sim.Second)
	wall := time.Since(t0)
	payload := c.Net.Cfg.PayloadBytes()
	frames := (size + payload - 1) / payload
	return float64(wall.Nanoseconds()) / float64(frames), nil
}

// buildChainSeconds is one default 3-switch, 2-sender chain build (the
// fabric of every figures-chain point), averaged over many.
func buildChainSeconds() (float64, error) {
	const ops = 200
	scheme, err := exp.NewScheme(exp.SchemeFNCC)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := topo.BuildChain(netsim.DefaultConfig(), scheme, topo.DefaultChainOpts(2)); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / ops, nil
}

// telemetryOverhead runs the micro FNCC point with and without a queue+cc
// probe block at 10 us and returns on/off wall and the samples taken.
func telemetryOverhead() (ratio, samples float64, err error) {
	off := scenario.Spec{Kind: scenario.KindMicro, Scheme: "FNCC"}
	on := off
	on.Telemetry = &scenario.TelemetrySpec{IntervalUs: 10, Probes: []string{"queue", "cc"}}
	var wOn, wOff []float64
	for i := 0; i < 5; i++ {
		for _, sp := range []scenario.Spec{off, on} {
			t0 := time.Now()
			res, err := scenario.Run(sp)
			if err != nil {
				return 0, 0, err
			}
			if sp.Telemetry != nil {
				wOn = append(wOn, time.Since(t0).Seconds())
				samples = res.Metrics["telemetry_samples"]
			} else {
				wOff = append(wOff, time.Since(t0).Seconds())
			}
		}
	}
	return median(wOn) / median(wOff), samples, nil
}
