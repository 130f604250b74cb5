package harness

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Registry metric names the harness maintains. Counters accumulate across
// every run the Runner executes. Exposed as constants so tests and the CLI
// summary line don't drift from the writers.
const (
	MetricCacheHits = "harness.cache_hits"
	// MetricCacheMisses counts finished simulations: jobs neither cached
	// nor coalesced onto an identical in-flight job, whose run returned. A
	// telemetry run always simulates, so it counts here too.
	MetricCacheMisses = "harness.cache_misses"
	// MetricCacheCoalesced counts jobs that rode an identical in-flight
	// simulation instead of simulating: singleflight waiters within the
	// process, and leaders that found the entry once they held the hash's
	// kernel lock (another process sharing the cache dir simulated it).
	MetricCacheCoalesced = "harness.cache_coalesced"
	// MetricCacheStoreErrors counts simulations whose result could not be
	// written to the cache dir (full or read-only disk). The job still
	// returns its result; the hash is simply not cached, so another process
	// or a later run simulates it again.
	MetricCacheStoreErrors = "harness.cache_store_errors"
	// MetricCacheLockErrors counts jobs that could not take their hash's
	// lock file (a cache dir that accepts no new files) and ran unlocked:
	// another process sharing the dir may simulate the same hash too.
	MetricCacheLockErrors = "harness.cache_lock_errors"
	// MetricCacheReaped counts orphaned temp files the startup reaper
	// deleted from the cache dir's tmp/, the only place it looks (entries
	// and .lock files beside tmp/ are never touched).
	MetricCacheReaped = "harness.cache_reaped"
	// MetricJobsDone and MetricJobsErrored partition every finished job:
	// done counts successes (simulated, cached, or coalesced), errored the
	// failures. Their sum is the number of runOne calls that returned.
	MetricJobsDone    = "harness.jobs_done"
	MetricJobsErrored = "harness.jobs_errored"
	// MetricReplayVerified counts telemetry runs whose simulated metrics
	// matched their hash's cache entry bit for bit, and MetricReplayMismatch
	// the ones that did not (each an errored job). A telemetry run of a
	// hash with no entry counts in neither.
	MetricReplayVerified = "harness.replay_verified"
	MetricReplayMismatch = "harness.replay_mismatch"

	MetricEngineEvents       = "engine.events_total"
	MetricFluidFullPasses    = "fluid.full_passes_total"
	MetricFluidIncrPasses    = "fluid.incremental_passes_total"
	MetricTelemetrySamples   = "telemetry.samples_total"
	MetricTraceEvents        = "telemetry.trace_events_total"
	MetricPoolHitRateLast    = "engine.pool_hit_rate_last"
	MetricEventReuseRateLast = "engine.event_reuse_rate_last"

	MetricJobWallMs = "job.wall_ms"
	MetricJobEvents = "job.engine_events"
)

// observeRun folds the engine counters of one simulated run — engine events,
// the pool rates, the fluid pass split and telemetry bookkeeping, all read
// off its metric map — into the registry's process totals. The Runner calls
// it right after a simulation; a cache hit simulates nothing and feeds
// nothing.
func observeRun(reg *obs.Registry, m map[string]float64) {
	if reg == nil {
		return
	}
	reg.Counter(MetricEngineEvents).Add(int64(m["engine_events"]))
	reg.Histogram(MetricJobEvents).Observe(m["engine_events"])
	if v, ok := m["pool_hit_rate"]; ok {
		reg.Gauge(MetricPoolHitRateLast).Set(v)
	}
	if v, ok := m["event_reuse_rate"]; ok {
		reg.Gauge(MetricEventReuseRateLast).Set(v)
	}
	if v, ok := m["fluid_full_passes"]; ok {
		reg.Counter(MetricFluidFullPasses).Add(int64(v))
	}
	if v, ok := m["fluid_incremental_passes"]; ok {
		reg.Counter(MetricFluidIncrPasses).Add(int64(v))
	}
	if v, ok := m["telemetry_samples"]; ok {
		reg.Counter(MetricTelemetrySamples).Add(int64(v))
		reg.Counter(MetricTraceEvents).Add(int64(m["trace_events"]))
	}
}

// jobSpan opens the per-job span under the sweep root, labelled with the
// sweep coordinates that identify the job in a trace viewer.
func (r *Runner) jobSpan(sp scenario.Spec, hash string, parent *obs.Span) *obs.Span {
	if r.Tracer == nil {
		return nil
	}
	s := r.Tracer.Start("job", parent)
	s.SetAttr("hash", hash)
	s.SetAttr("name", sp.Name)
	s.SetAttr("kind", sp.Kind)
	s.SetAttr("scheme", sp.Scheme)
	s.SetAttr("backend", sp.BackendName())
	s.SetAttr("seed", strconv.FormatInt(sp.Seed, 10))
	return s
}

// timeHist observes elapsed milliseconds on the named histogram; a nil
// registry makes it a no-op via the nil instrument.
func timeHist(reg *obs.Registry, name string, since time.Time) {
	reg.Histogram(name).Observe(float64(time.Since(since).Nanoseconds()) / 1e6)
}
