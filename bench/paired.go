package main

import (
	"io"
	"math"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// The paired measurements are the traced run's numbers that need a second
// arm: a layer's cost read as the ratio of two runs in this process. Each
// names its base. A workload names its own in workloadDef.paired.

// shardPaired compares the sharded traced repeats with a serial staged run
// of the same spec in the same process.
func shardPaired(r *run, m map[string]float64, withTrace cost) error {
	serial := newTracer()
	if _, err := stagedFCT(webSearchSpec(r.seed), serial, -1); err != nil {
		return err
	}
	m["netsim.shard_speedup"] = serial.seconds("Network.RunToCompletion") / m["netsim.run_s"]
	m["netsim.shard_cpu_per_wall"] = withTrace.CPU / withTrace.Wall
	return nil
}

// telemetryPaired runs the micro FNCC point with and without a telemetry
// block; the base is without.
func telemetryPaired(_ *run, m map[string]float64, _ cost) (err error) {
	m["telemetry.overhead_ratio"], m["telemetry.samples"], err = telemetryOverhead()
	return err
}

// modelErrPaired measures the fluid model against the packet engine's
// slowdown_avg on the fct-websearch spec, the only reference the repository
// holds; the model is not validated against hardware.
func modelErrPaired(r *run, m map[string]float64, _ cost) error {
	sp := webSearchSpec(r.seed)
	pkt := runPoint(sp)
	sp.Backend = scenario.BackendFluid
	fl := runPoint(sp)
	if pkt.fail != "" || fl.fail != "" {
		r.check.fail("model_err reference: %s%s", pkt.fail, fl.fail)
		return nil
	}
	want := pkt.metrics["slowdown_avg"]
	m["fluid.model_err"] = math.Abs(fl.metrics["slowdown_avg"]-want) / want
	return nil
}

// sweepLayers times the harness and sweepd passes next to each other, so
// their ratios share a process and a minute: the same for all three sweep
// workloads, whose own traced bodies give the CPU shares.
func sweepLayers(r *run, m map[string]float64, _ cost) error {
	e := r.env
	t0 := time.Now()
	sw := sweepGrid(r.seed)
	specs, err := sw.Expand()
	if err != nil {
		return err
	}
	m["harness.expand_s"] = time.Since(t0).Seconds()
	points := float64(len(specs))

	timedPass := func(dir string, misses int, reg *obs.Registry, otr *obs.Tracer) (float64, error) {
		t0 := time.Now()
		_, err := runnerPass(dir, specs, misses, reg, otr, nil)
		return time.Since(t0).Seconds(), err
	}
	dir, err := e.freshDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cold, err := timedPass(dir, len(specs), nil, nil)
	if err != nil {
		return err
	}
	warm, err := timedPass(dir, 0, nil, nil)
	if err != nil {
		return err
	}
	// The bare simulations of the same points, one after another with no
	// Runner: what is left of the cold pass's worker time is the harness.
	t0 = time.Now()
	var results []*scenario.Result
	for _, sp := range specs {
		res, err := scenario.Run(sp)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	bare := time.Since(t0).Seconds()
	m["harness.cold_pass_s"] = cold
	m["harness.warm_pass_s"] = warm
	m["harness.store_us_per_point"] = (cold*sweepWorkers - bare) / points * 1e6
	m["harness.load_us_per_point"] = warm * sweepWorkers / points * 1e6

	t0 = time.Now()
	if err := harness.WriteCSV(io.Discard, harness.Aggregate(harness.Rows(results))); err != nil {
		return err
	}
	m["harness.export_s"] = time.Since(t0).Seconds()

	// Base: the cold pass above, with no registry and no tracer attached.
	obsDir, err := e.freshDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(obsDir)
	otr := obs.NewTracer()
	withObs, err := timedPass(obsDir, len(specs), obs.NewRegistry(), otr)
	if err != nil {
		return err
	}
	m["obs.overhead_ratio"] = withObs / cold
	m["obs.spans"] = float64(len(otr.Spans()))

	s, err := startServed(e)
	if err != nil {
		return err
	}
	defer s.stop()
	str := newTracer()
	if _, err := s.pass(sw, len(specs), str); err != nil {
		return err
	}
	m["sweepd.submit_s"] = str.seconds("sweepd.submit")
	m["sweepd.first_point_s"] = str.seconds("sweepd.first_point")
	m["sweepd.stream_s"] = str.seconds("sweepd.stream")
	m["sweepd.served_pass_s"] = str.seconds("sweepd.served_pass")
	m["sweepd.envelope_ratio"] = m["sweepd.served_pass_s"] / cold // base: the direct cold pass
	return nil
}
