package harness

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// repeatSpec returns the same cheap spec n times — the degenerate sweep
// that used to simulate n times.
func repeatSpec(n int) []scenario.Spec {
	specs := make([]scenario.Spec, n)
	for i := range specs {
		specs[i] = microSpec("FNCC")
	}
	return specs
}

// TestSingleflightDuplicateSpecs: a sweep containing the same spec 8×
// performs exactly one simulation; the other seven coalesce onto it (or
// hit the cache if they start after the leader stored). Runs under -race
// in CI, which also makes it the data-race guard for the flight table.
func TestSingleflightDuplicateSpecs(t *testing.T) {
	reg := obs.NewRegistry()
	r := &Runner{CacheDir: t.TempDir(), Workers: 8, Obs: reg}
	results, err := r.RunAll(repeatSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("results = %d, want 8", len(results))
	}
	hits, misses := r.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 simulation", misses)
	}
	if hits+r.Coalesced() != 7 {
		t.Fatalf("hits=%d coalesced=%d, want them to cover the other 7 jobs",
			hits, r.Coalesced())
	}
	s := reg.Snapshot()
	if s.Counters[MetricCacheMisses] != 1 {
		t.Errorf("%s = %d, want 1", MetricCacheMisses, s.Counters[MetricCacheMisses])
	}
	if s.Counters[MetricCacheCoalesced] != r.Coalesced() {
		t.Errorf("%s = %d, want %d", MetricCacheCoalesced,
			s.Counters[MetricCacheCoalesced], r.Coalesced())
	}
	if s.Counters[MetricJobsDone] != 8 {
		t.Errorf("%s = %d, want 8", MetricJobsDone, s.Counters[MetricJobsDone])
	}
	// Every copy carries the full metric map of the one simulation.
	for i, res := range results {
		if len(res.Metrics) == 0 || res.Metrics["engine_events"] != results[0].Metrics["engine_events"] {
			t.Fatalf("result %d metrics diverge from the leader's", i)
		}
	}
}

// TestSingleflightNoCache pins that coalescing works without a cache dir:
// waiters share the leader's in-memory result instead of re-loading. With
// no cache there is nothing for late starters to hit, so the test releases
// all callers through a barrier while the leader (a ~50 ms job) is still
// simulating — only overlapping work can coalesce.
func TestSingleflightNoCache(t *testing.T) {
	sp := microSpec("FNCC")
	sp.DurationUs = 2000
	r := &Runner{}
	const callers = 8
	var ready, wg sync.WaitGroup
	release := make(chan struct{})
	results := make([]*scenario.Result, callers)
	errs := make([]error, callers)
	ready.Add(callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			ready.Done()
			<-release
			results[i], errs[i] = r.Run(sp)
		}(i)
	}
	ready.Wait()
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if _, misses := r.Stats(); misses != 1 {
		t.Fatalf("misses = %d, want 1 (no cache, pure singleflight)", misses)
	}
	if r.Coalesced() != callers-1 {
		t.Fatalf("coalesced = %d, want %d", r.Coalesced(), callers-1)
	}
	// Shared-copy results must still carry the leader's metrics.
	for _, res := range results {
		if res == nil || res.Metrics == nil {
			t.Fatal("coalesced result lost its metrics")
		}
	}
}

// TestSingleflightNameIndependence: the cache key ignores Name, so two
// differently named copies of one spec coalesce — and each caller still
// gets its own label back.
func TestSingleflightNameIndependence(t *testing.T) {
	a := microSpec("FNCC")
	a.Name = "alpha"
	b := microSpec("FNCC")
	b.Name = "beta"
	r := &Runner{CacheDir: t.TempDir(), Workers: 2}
	results, err := r.RunAll([]scenario.Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := r.Stats(); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if results[0].Spec.Name != "alpha" || results[1].Spec.Name != "beta" {
		t.Errorf("names = %q/%q, want alpha/beta",
			results[0].Spec.Name, results[1].Spec.Name)
	}
}

// TestTempFileReaping: Runner startup deletes aged-out orphans from tmp/
// but leaves fresh ones (a live writer's) alone, and never touches the
// entries and lock files beside tmp/, however old.
func TestTempFileReaping(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	oldTmp := filepath.Join(tmp, "sc-dead.123")
	freshTmp := filepath.Join(tmp, "sc-live.456")
	entry := filepath.Join(dir, "sc-dead.res")
	lock := filepath.Join(dir, "sc-dead.lock")
	past := time.Now().Add(-2 * tmpMaxAge)
	for _, p := range []string{oldTmp, freshTmp, entry, lock} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if p != freshTmp {
			if err := os.Chtimes(p, past, past); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := obs.NewRegistry()
	r := &Runner{CacheDir: dir, Obs: reg}
	if _, err := r.Run(microSpec("FNCC")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(oldTmp); !os.IsNotExist(err) {
		t.Error("aged-out temp file survived the reaper")
	}
	if _, err := os.Stat(freshTmp); err != nil {
		t.Error("fresh temp file was reaped (live writer's file deleted)")
	}
	for _, p := range []string{entry, lock} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("the reaper touched %s: %v", filepath.Base(p), err)
		}
	}
	if got := reg.Snapshot().Counters[MetricCacheReaped]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricCacheReaped, got)
	}
}

// TestCacheDirRemovedMidSweep: a cache dir deleted while a sweep runs costs
// the sweep its stores, not its results: every job returns its simulated
// result and cache_store_errors counts each store that failed. A tmp/
// deleted alone is put back by the next store, which lands.
func TestCacheDirRemovedMidSweep(t *testing.T) {
	specs := []scenario.Spec{microSpec("FNCC"), microSpec("HPCC"), microSpec("DCQCN")}
	for _, tc := range []struct {
		name      string
		remove    func(dir string) error
		storeErrs int64
	}{
		{"cache dir", os.RemoveAll, int64(len(specs))},
		{"tmp dir", func(dir string) error { return os.Remove(filepath.Join(dir, "tmp")) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			reg := obs.NewRegistry()
			var once sync.Once
			r := &Runner{CacheDir: dir, Workers: 1, Obs: reg, run: func(sp scenario.Spec) (*scenario.Result, error) {
				var err error
				once.Do(func() { err = tc.remove(dir) })
				if err != nil {
					return nil, err
				}
				return scenario.Run(sp)
			}}
			results, err := r.RunAll(specs)
			if err != nil || len(results) != len(specs) {
				t.Fatalf("%d results, err = %v; want %d results", len(results), err, len(specs))
			}
			for i, res := range results {
				if res == nil || res.Cached || len(res.Metrics) == 0 || res.Spec.Scheme != specs[i].Scheme {
					t.Errorf("job %d: %+v, want %s's simulated result", i, res, specs[i].Scheme)
				}
			}
			c := reg.Snapshot().Counters
			if c[MetricCacheStoreErrors] != tc.storeErrs || c[MetricCacheMisses] != int64(len(specs)) ||
				c[MetricJobsDone] != int64(len(specs)) || c[MetricJobsErrored] != 0 {
				t.Errorf("store_errors=%d misses=%d done=%d errored=%d, want %d, %d, %d and 0",
					c[MetricCacheStoreErrors], c[MetricCacheMisses], c[MetricJobsDone], c[MetricJobsErrored],
					tc.storeErrs, len(specs), len(specs))
			}
			if tc.storeErrs != 0 {
				return
			}
			for _, sp := range specs {
				if _, ok := r.load(sp, sp.Hash()); !ok {
					t.Errorf("%s: no entry after tmp/ was put back", sp.Scheme)
				}
			}
		})
	}
}

// TestReadOnlyCacheServesHits: a shared cache this user cannot write — here
// one written before entries had a tmp/ beside them — still serves its
// entries; only creating tmp/ fails, and nothing needs it on a hit.
func TestReadOnlyCacheServesHits(t *testing.T) {
	dir := t.TempDir()
	sp := microSpec("FNCC")
	if _, err := (&Runner{CacheDir: dir}).Run(sp); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "tmp")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := os.Mkdir(filepath.Join(dir, "tmp"), 0o755); err == nil {
		t.Skip("the directory still takes files after chmod 0555 (running as root)")
	}
	r := &Runner{CacheDir: dir}
	res, err := r.Run(sp)
	if err != nil || !res.Cached {
		t.Fatalf("cached = %v, err = %v; want a hit", res != nil && res.Cached, err)
	}
}

// panickingRun stands in for a simulation with a modelling bug. No spec that
// validates reaches one on purpose, so the tests swap it in through the
// Runner.run seam.
func panickingRun(scenario.Spec) (*scenario.Result, error) {
	panic("modelling bug: negative propagation delay")
}

// TestPanickingJobIsAnError: a simulation panic is that job's error — for
// the leader and for every caller coalesced onto it — with the stack on the
// job span, and it releases the hash: a second Runner on the same cache dir
// takes the lock straight away instead of blocking behind a dead owner.
func TestPanickingJobIsAnError(t *testing.T) {
	sp := microSpec("HPCC")
	dir := t.TempDir()
	reg, tracer := obs.NewRegistry(), obs.NewTracer()
	r := &Runner{CacheDir: dir, Obs: reg, Tracer: tracer}
	r.run = func(sp scenario.Spec) (*scenario.Result, error) {
		if sp.Scheme == "HPCC" {
			return panickingRun(sp)
		}
		return scenario.Run(sp)
	}
	const callers = 4
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Run(sp)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != "harness: simulation panicked: modelling bug: negative propagation delay" {
			t.Fatalf("caller %d: err = %v, want the contained panic", i, err)
		}
	}
	if _, misses := r.Stats(); misses != 0 {
		t.Errorf("misses = %d, want 0 (a panicked job is not a simulation)", misses)
	}
	if got := reg.Snapshot().Counters[MetricJobsErrored]; got != callers {
		t.Errorf("%s = %d, want %d", MetricJobsErrored, got, callers)
	}
	stacks := 0
	for _, s := range tracer.Spans() {
		if strings.Contains(s.Attrs["panic_stack"], "harness.panickingRun") {
			stacks++
		}
	}
	if stacks == 0 {
		t.Error("no job span carries the panic stack")
	}
	second := &Runner{CacheDir: dir}
	second.run = panickingRun
	if _, err := second.Run(sp); err == nil || !strings.Contains(err.Error(), "simulation panicked") {
		t.Errorf("second Runner on the same hash: err = %v, want the same panic error", err)
	}
	// The healthy path is untouched: the Runner that contained the panics
	// still simulates.
	if _, err := r.Run(microSpec("FNCC")); err != nil {
		t.Fatal(err)
	}
}

// TestCacheStoreFailureKeepsResult: a cache dir that cannot take a hash's
// lock file or its finished entry costs the next caller a re-run, not this
// one its result. The job runs (unlocked if it must), succeeds and counts as
// a miss, its span and the registry say what failed, no half-written entry
// is left, and once the directory is mended a new Runner finds the hash
// simulated at most once more.
func TestCacheStoreFailureKeepsResult(t *testing.T) {
	sp := microSpec("FNCC")
	hash := sp.Hash()
	for _, tc := range []struct {
		name string
		// breakDir makes taking <hash>.lock and/or writing <hash>.res
		// fail and returns the undo.
		breakDir            func(t *testing.T, dir string) (mend func())
		lockErrs, storeErrs int64
	}{
		{"directory takes no new files", func(t *testing.T, dir string) func() {
			if err := os.Chmod(dir, 0o555); err != nil {
				t.Fatal(err)
			}
			mend := func() { os.Chmod(dir, 0o755) }
			if f, err := os.CreateTemp(dir, "probe-"); err == nil {
				f.Close()
				os.Remove(f.Name())
				mend()
				t.Skip("the directory still takes files after chmod 0555 (running as root)")
			}
			return mend
		}, 1, 1},
		{"entry path taken by a directory", func(t *testing.T, dir string) func() {
			// Works for root too: rename cannot replace a non-empty directory.
			blocker := filepath.Join(dir, hash+".res")
			if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			return func() { os.RemoveAll(blocker) }
		}, 0, 1},
		{"lock path taken by a directory", func(t *testing.T, dir string) func() {
			// Works for root too: a directory cannot be opened for writing.
			blocker := filepath.Join(dir, hash+".lock")
			if err := os.Mkdir(blocker, 0o755); err != nil {
				t.Fatal(err)
			}
			return func() { os.Remove(blocker) }
		}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg, tracer := obs.NewRegistry(), obs.NewTracer()
			r := &Runner{CacheDir: dir, Obs: reg, Tracer: tracer}
			if err := r.initCache(); err != nil {
				t.Fatal(err)
			}
			mend := tc.breakDir(t, dir)
			defer mend()

			res, err := r.Run(sp)
			if err != nil || res == nil || res.Cached || len(res.Metrics) == 0 {
				t.Fatalf("Run on the broken dir: res = %+v, err = %v; want the simulated result", res, err)
			}
			if hits, misses := r.Stats(); hits != 0 || misses != 1 {
				t.Errorf("hits = %d misses = %d, want 0 and 1", hits, misses)
			}
			c := reg.Snapshot().Counters
			if c[MetricCacheLockErrors] != tc.lockErrs || c[MetricCacheStoreErrors] != tc.storeErrs ||
				c[MetricJobsDone] != 1 || c[MetricJobsErrored] != 0 {
				t.Errorf("lock_errors=%d store_errors=%d done=%d errored=%d, want %d, %d, 1 and 0",
					c[MetricCacheLockErrors], c[MetricCacheStoreErrors], c[MetricJobsDone], c[MetricJobsErrored],
					tc.lockErrs, tc.storeErrs)
			}
			marked := map[string]int64{}
			for _, s := range tracer.Spans() {
				for _, attr := range []string{"cache_lock_error", "cache_store_error"} {
					if s.Attrs[attr] == "" {
						continue
					}
					marked[attr]++
					if s.Attrs["outcome"] != "simulated" {
						t.Errorf("span with %s: outcome = %q, want simulated", attr, s.Attrs["outcome"])
					}
				}
			}
			if marked["cache_lock_error"] != tc.lockErrs || marked["cache_store_error"] != tc.storeErrs {
				t.Errorf("spans marked %v, want the one job span to carry %d lock and %d store errors",
					marked, tc.lockErrs, tc.storeErrs)
			}
			stored := tc.storeErrs == 0
			if _, ok := r.load(sp, hash); ok != stored {
				t.Errorf("entry loadable = %v after %d store errors", ok, tc.storeErrs)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "tmp", "*")); len(left) != 0 {
				t.Errorf("the run left temp files: %v", left)
			}

			mend()
			next := &Runner{CacheDir: dir}
			for i, wantCached := range []bool{stored, true} {
				res, err := next.Run(sp)
				if err != nil || res.Cached != wantCached {
					t.Fatalf("run %d on the mended dir: cached = %v err = %v, want cached = %v", i, res != nil && res.Cached, err, wantCached)
				}
			}
			wantHits, wantMisses := int64(1), int64(1)
			if stored {
				wantHits, wantMisses = 2, 0
			}
			if hits, misses := next.Stats(); hits != wantHits || misses != wantMisses {
				t.Errorf("mended dir: hits = %d misses = %d, want %d and %d", hits, misses, wantHits, wantMisses)
			}
		})
	}
}

// boomCC is a sender CC that panics on its 20th ACK: a modelling bug in the
// middle of a window. No spec reaches one, so the test below swaps the run
// in.
type boomCC struct{ acks int }

func (*boomCC) Name() string { return "boom" }
func (c *boomCC) OnAck(*netsim.Flow, *packet.Packet, sim.Time) {
	if c.acks++; c.acks == 20 {
		panic("boomCC: modelling bug")
	}
}
func (*boomCC) OnCnp(*netsim.Flow, sim.Time) {}
func (*boomCC) WindowBytes() int64           { return 1 << 40 }
func (*boomCC) RateBps() int64               { return 100e9 }

type plainAcks struct{}

func (plainAcks) FillAck(ack, _ *packet.Packet, _ *netsim.Host) {}
func (plainAcks) WantCnp(*packet.Packet, *netsim.Host, sim.Time) bool {
	return false
}

// runBoom is two hosts, one 500 KB flow: one per shard and worker at two
// shards, an unpartitioned network at one.
func runBoom(shards int) (*scenario.Result, error) {
	n := netsim.MustNew(netsim.DefaultConfig(), netsim.Scheme{
		Name:        "boom",
		NewSenderCC: func(*netsim.Flow) netsim.SenderCC { return &boomCC{} },
		Receiver:    plainAcks{},
	})
	if shards > 1 {
		n.ConfigureSharding(shards, shards)
	}
	h0 := n.NewHost()
	n.BuildShard(shards - 1)
	h1 := n.NewHost()
	netsim.Connect(h0.Port(), h1.Port(), 100e9, 1500*sim.Nanosecond)
	n.AddFlow(1, h0, h1, 500_000, 0)
	n.RunToCompletion(sim.Millisecond)
	return nil, errors.New("boomCC never fired")
}

// TestShardWorkerPanicIsAJobError: a panic inside a window — at two shards on
// a window worker, not the goroutine simulate's recover is on; at one on the
// caller's — is that job's error, with the stack of the goroutine that raised
// it on the job span, and the pool goes on to the next job. Before the workers
// recovered, the sharded one killed the process.
func TestShardWorkerPanicIsAJobError(t *testing.T) {
	old := runtime.GOMAXPROCS(2) // the executor never runs wider than this
	defer runtime.GOMAXPROCS(old)
	before := runtime.NumGoroutine()

	for _, shards := range []int{1, 2} {
		reg, tracer := obs.NewRegistry(), obs.NewTracer()
		r := &Runner{Workers: 1, Obs: reg, Tracer: tracer}
		r.run = func(sp scenario.Spec) (*scenario.Result, error) {
			if sp.Name == "boom" {
				return runBoom(shards)
			}
			return scenario.Run(sp)
		}
		bad := microSpec("HPCC")
		bad.Name = "boom"
		_, err := r.RunAll([]scenario.Spec{bad, microSpec("FNCC")})
		if err == nil || err.Error() != "harness: simulation panicked: boomCC: modelling bug" {
			t.Fatalf("shards=%d: err = %v, want the panic as the job error", shards, err)
		}
		c := reg.Snapshot().Counters
		if c[MetricJobsErrored] != 1 || c[MetricJobsDone] != 1 {
			t.Errorf("shards=%d: errored=%d done=%d, want 1 and 1: the job after the panic must still run",
				shards, c[MetricJobsErrored], c[MetricJobsDone])
		}
		stacks := 0
		for _, s := range tracer.Spans() {
			if strings.Contains(s.Attrs["panic_stack"], "boomCC).OnAck") {
				stacks++
			}
		}
		if stacks != 1 {
			t.Errorf("shards=%d: %d job spans carry the panicking goroutine's stack, want 1", shards, stacks)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: a window worker outlived its run", runtime.NumGoroutine(), before)
		}
	}
}

// TestErroredAccounting: a failing job lands in jobs_errored and
// Progress.Errored — not in jobs_done — and still observes job.wall_ms,
// so the histogram covers the whole sweep (simulated + cached + errored).
func TestErroredAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	good := microSpec("FNCC")
	// Warm the cache so the sweep below has a cached outcome too.
	warm := &Runner{CacheDir: dir}
	if _, err := warm.Run(good); err != nil {
		t.Fatal(err)
	}
	bad := microSpec("FNCC")
	bad.Kind = "no-such-kind" // fails Validate inside runOne
	var last Progress
	r := &Runner{CacheDir: dir, Workers: 1, Obs: reg,
		OnProgress: func(p Progress) { last = p }}
	_, err := r.RunAll([]scenario.Spec{good, bad})
	if err == nil {
		t.Fatal("sweep with an invalid spec succeeded")
	}
	s := reg.Snapshot()
	if s.Counters[MetricJobsErrored] != 1 {
		t.Errorf("%s = %d, want 1", MetricJobsErrored, s.Counters[MetricJobsErrored])
	}
	if s.Counters[MetricJobsDone] != 1 {
		t.Errorf("%s = %d, want 1 (errored job folded into done)", MetricJobsDone,
			s.Counters[MetricJobsDone])
	}
	if last.Errored != 1 || last.Done != 1 {
		t.Errorf("progress = %+v, want Done=1 Errored=1", last)
	}
	// wall_ms must cover both outcomes: one cached hit + one errored job.
	if got := s.Histograms[MetricJobWallMs].Count; got != 2 {
		t.Errorf("%s count = %d, want 2 (cached + errored both observed)",
			MetricJobWallMs, got)
	}
}
