package exp

import (
	"runtime/metrics"
	"time"

	"repro/internal/netsim"
)

// PerfStats is one run's simulator-performance telemetry: engine throughput
// and the efficiency of the event and packet pools. Every runner attaches
// it to its result so sweeps track perf as a first-class, cached,
// regression-comparable output alongside the modelled metrics.
//
// WallSeconds, EventsPerSec, Mallocs and AllocBytes depend on the machine
// and on what else the process is doing — under the sweep worker pool the
// memory deltas are process-global, so concurrent runs inflate each other's
// counts. They are trend indicators, not exact per-run attributions; the
// engine/pool counters (Events, EventReuseRate, PoolHitRate) are exact and
// deterministic.
type PerfStats struct {
	// Events is the number of simulation events the engine fired.
	Events uint64 `json:"events"`
	// WallSeconds is the host wall-clock time the run took.
	WallSeconds float64 `json:"wall_seconds"`
	// EventsPerSec is Events/WallSeconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// EventReuseRate is the engine slot-pool hit rate (≈1 in steady state).
	EventReuseRate float64 `json:"event_reuse_rate"`
	// PoolHitRate is the packet-pool hit rate (≈1 in steady state).
	PoolHitRate float64 `json:"pool_hit_rate"`
	// Mallocs is the process heap-allocation count delta across the run.
	Mallocs uint64 `json:"mallocs"`
	// AllocBytes is the total bytes allocated across the run.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Shard summarizes the parallel packet executor when the run was
	// sharded; Shard.Shards == 0 for serial runs. Windows and Messages are
	// deterministic for a given topology partition, like Events.
	Shard netsim.ShardStats `json:"shard,omitempty"`
}

// allocSamples reads the cumulative heap-allocation counters through
// runtime/metrics, which unlike runtime.ReadMemStats does not stop the
// world — probing must not serialize the sweep workers it measures.
func allocSamples() (objects, bytes uint64) {
	s := [2]metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// PerfProbe captures the process state at run start; End closes the
// measurement against the run's network.
type PerfProbe struct {
	mallocs0 uint64
	bytes0   uint64
	t0       time.Time
}

// BeginPerf starts a run measurement. Call before building the network so
// topology construction and flow setup are attributed to the run.
func BeginPerf() PerfProbe {
	objects, bytes := allocSamples()
	return PerfProbe{mallocs0: objects, bytes0: bytes, t0: time.Now()}
}

// End finalizes the measurement, folding in the engine and pool counters,
// and ends the run: every packet runner finishes here, so this is where the
// engines' storage goes back for the next point of the sweep. The network
// must not be run again afterwards.
func (p PerfProbe) End(net *netsim.Network) PerfStats {
	wall := time.Since(p.t0).Seconds()
	objects, bytes := allocSamples()
	es := net.TotalEngineStats()
	ps := net.TotalPoolStats()
	net.ReleaseEngines()
	out := PerfStats{
		Events:         es.Processed,
		WallSeconds:    wall,
		EventReuseRate: es.ReuseRate(),
		PoolHitRate:    ps.HitRate(),
		Mallocs:        objects - p.mallocs0,
		AllocBytes:     bytes - p.bytes0,
		Shard:          net.ShardStats(),
	}
	if wall > 0 {
		out.EventsPerSec = float64(es.Processed) / wall
	}
	return out
}
