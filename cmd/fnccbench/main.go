// fnccbench is the one command that runs a figure: it drives the declarative
// scenario subsystem from the command line — list the built-in scenarios and
// sweep a grid of schemes × seeds × loads × sizes over one by name or from a
// JSON spec file, with a content-addressed result cache (no grid flags runs
// the one scenario) — and shows what a spec runs, down to its flow set.
//
//	fnccbench list
//	fnccbench show  <name|spec.json> [-flows]  # canonical spec + hash, or flows
//	fnccbench sweep <name|spec.json> [flags]
//	fnccbench spans <spans.jsonl>              # -> Chrome trace JSON
//
// Examples:
//
//	fnccbench sweep incast -schemes HPCC
//	fnccbench sweep micro -schemes FNCC,HPCC,DCQCN,RoCC -cache .fnccbench
//	fnccbench sweep notify-first -schemes FNCC,HPCC,DCQCN,RoCC   # Fig 2/12
//	fnccbench sweep fct-hadoop -schemes DCQCN,HPCC,FNCC -seeds 1,2 \
//	    -format buckets                        # Fig 15 per-bucket tables
//	fnccbench show fct-websearch -flows        # CSV arrival trace
//	fnccbench sweep fct-websearch -schemes FNCC,HPCC -seeds 1,2,3 \
//	    -loads 0.3,0.5,0.7 -agg -format csv -cache .fnccbench
//	fnccbench sweep fct-websearch -backends fluid -schemes FNCC,HPCC,DCQCN \
//	    -loads 0.1,0.3,0.5,0.7,0.9 -seeds 1,2,3,4,5   # ms per point
//	fnccbench sweep permutation -backends packet,fluid -sizes 4,8  # cross-check
//	fnccbench sweep fct-websearch -log json \
//	    -spans spans.jsonl -metrics metrics.json       # observable sweep
//	fnccbench serve -cache .fnccbench &                # long-running service
//	fnccbench submit fct-websearch -schemes FNCC,HPCC -watch
//	curl localhost:8080/progress                       # live sweeps + open jobs
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "show":
		err = cmdShow(os.Args[2:], os.Stdout)
	case "sweep":
		err = cmdSweep(os.Args[2:], os.Stdout)
	case "spans":
		err = cmdSpans(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fnccbench: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fnccbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fnccbench <list|show|sweep|spans|serve|submit|watch> [args]
  list                      built-in scenarios
  show  <name|spec.json>    canonical spec JSON + content hash + probe support, and the
                            flow-size distribution of an fct/mixed spec; -flows prints
                            only the flow set the run offers, as CSV
  sweep <name|spec.json>    expand and run a grid; no grid flags runs the one scenario
                            (flags: -schemes -backends -seeds -loads -sizes -workers -cache
                            -agg -progress -format table|csv|json|buckets -log text|json|off
                            -telemetry <dir> -spans file.jsonl -metrics file.json
                            -cpuprofile file -memprofile file); -format buckets prints
                            the Figs 14/15 tables, one set per (name, backend, k, load),
                            of fct/mixed points simulated in this run
  spans <spans.jsonl>       convert exported sweep spans to Chrome trace JSON on stdout
                            (load in Perfetto or chrome://tracing)
  serve                     long-running sweep server (flags: -listen -cache -workers -log
                            -drain-timeout); POST /sweeps, NDJSON result streams, /progress
  submit <name|spec.json>   post a sweep to a running server (flags: -addr -schemes -backends
                            -seeds -loads -sizes -watch)
  watch [-from N] <id>      attach to a sweep on a running server and stream its points
Run 'fnccbench <subcommand> -h' for flags.`)
}

// resolve loads a spec from the registry or, when the argument names an
// existing file, parses it as JSON. Read failures other than "no such
// file" surface as-is instead of masquerading as unknown scenario names.
func resolve(arg string) (scenario.Spec, error) {
	data, err := os.ReadFile(arg)
	if err == nil {
		return scenario.ParseSpec(data)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return scenario.Spec{}, err
	}
	return scenario.Lookup(arg)
}

func cmdList() error {
	fmt.Printf("%-24s %-12s %-8s %-7s %s\n", "name", "kind", "scheme", "backend", "description")
	for _, e := range scenario.Builtin() {
		fmt.Printf("%-24s %-12s %-8s %-7s %s\n",
			e.Spec.Name, e.Spec.Kind, e.Spec.Scheme, e.Spec.BackendName(), e.Desc)
	}
	return nil
}

// cmdShow says what a spec runs: its canonical form, hash and probe support,
// plus the flow-size distribution of a Poisson kind — or, with -flows, only
// the flow set the run offers its fabric, as CSV.
func cmdShow(args []string, w io.Writer) error {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("show needs a scenario name or spec file first")
	}
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	flowsOnly := fs.Bool("flows", false, "print only the spec's flow set as CSV: id,src,dst,bytes,start_us")
	fs.Parse(args[1:])
	sp, err := resolve(args[0])
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if *flowsOnly {
		flows, err := scenario.Flows(sp)
		if err != nil {
			return err
		}
		fmt.Fprintln(bw, "id,src,dst,bytes,start_us")
		for _, f := range flows {
			fmt.Fprintf(bw, "%d,%d,%d,%d,%.3f\n", f.ID, f.SrcHost, f.DstHost, f.SizeBytes, f.Start.Micros())
		}
		return bw.Flush()
	}
	n, err := sp.Normalize()
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\nhash: %s\n", n.Canonical(), n.Hash())
	sp = n.Spec()
	// Which probe classes a telemetry block on this spec could sample: the
	// fluid backend models rates and link shares, not packets, so the
	// packet-level classes are rejected there (mirroring Backend rules).
	supported := map[string]bool{}
	for _, p := range sp.SupportedProbes() {
		supported[p] = true
	}
	fmt.Fprintln(bw, "probes:")
	for _, p := range telemetry.AllProbes() {
		mark := "no (backend " + sp.BackendName() + ")"
		if supported[p] {
			mark = "yes"
		}
		fmt.Fprintf(bw, "  %-8s %s\n", p, mark)
	}
	trace := "yes"
	if sp.BackendName() == scenario.BackendFluid {
		trace = "no (event tracing is packet-level)"
	}
	fmt.Fprintf(bw, "  %-8s %s\n", "trace", trace)
	// Only the Poisson kinds draw flow sizes from a distribution.
	if cdf, ok := workload.ByName(sp.Workload.CDF); ok {
		fmt.Fprintf(bw, "workload %s: mean %.0fB, min %dB, max %dB\n",
			cdf.Name(), cdf.MeanBytes(), cdf.MinBytes(), cdf.MaxBytes())
		fmt.Fprintln(bw, "quantile  size_bytes")
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
			fmt.Fprintf(bw, "%8.2f  %10d\n", q, cdf.Quantile(q))
		}
	}
	return bw.Flush()
}

// startProfiles implements sweep's -cpuprofile/-memprofile pair: a one-shot
// pprof capture without standing up the serve debug mux. The returned stop
// function ends the CPU profile and writes the heap profile; the caller
// invokes it before printing results so the files are complete even when
// the command errors afterwards.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				errs = append(errs, fmt.Errorf("memprofile: %w", err))
			} else {
				runtime.GC() // settle live-heap accounting before the snapshot
				werr := pprof.WriteHeapProfile(f)
				cerr := f.Close()
				if err := errors.Join(werr, cerr); err != nil {
					errs = append(errs, fmt.Errorf("memprofile: %w", err))
				}
			}
		}
		return errors.Join(errs...)
	}, nil
}

// obsEnv is the per-invocation observability state the -log flag
// configures: the structured logger every status print goes through, the
// metrics registry the runner feeds, and the span tracer.
type obsEnv struct {
	logger *slog.Logger
	reg    *obs.Registry
	tracer *obs.Tracer
}

// setupObs validates -log and brings the layer up. The registry and tracer
// are always created — per-job counter bumps are nanoseconds against
// millisecond jobs, and the final stats summary reads from them. A malformed
// value fails here with a usage-quality error, before any simulation starts.
func setupObs(logMode string) (*obsEnv, error) {
	logger, err := obs.NewLogger(logMode, os.Stderr)
	if err != nil {
		return nil, err
	}
	return &obsEnv{logger: logger, reg: obs.NewRegistry(), tracer: obs.NewTracer()}, nil
}

// cmdSweep expands a grid over one scenario and runs its points; with no
// grid flags that is the one scenario itself.
func cmdSweep(args []string, w io.Writer) error {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("sweep needs a scenario name or spec file first")
	}
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	schemes := fs.String("schemes", "", "comma-separated scheme names")
	backends := fs.String("backends", "", "comma-separated backends to sweep as a grid dimension: packet|fluid")
	seeds := fs.String("seeds", "", "comma-separated int64 seeds")
	loads := fs.String("loads", "", "comma-separated target loads")
	sizes := fs.String("sizes", "", "comma-separated topology sizes (K / senders / fanout)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	cache := fs.String("cache", "", "result cache directory (empty disables)")
	agg := fs.Bool("agg", false, "aggregate metrics across seeds")
	progress := fs.Bool("progress", true, "live progress line on stderr (only when stderr is a terminal)")
	format := fs.String("format", "table", "output format: table|csv|json, or buckets for the "+
		"Figs 14/15 per-size-bucket FCT slowdown tables (uncached fct/mixed points)")
	logMode := fs.String("log", "text", "status log format: text|json|off")
	telemetryDir := fs.String("telemetry", "", "export each point's telemetry series to <dir>/<hash>/ "+
		"(adds a default telemetry block to a point that has none; each point simulates, "+
		"and one already in -cache is checked against its entry)")
	spansOut := fs.String("spans", "", "export the sweep's span trace as JSONL to this file")
	metricsOut := fs.String("metrics", "", "write the final metrics-registry snapshot as JSON to this file")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
	memProf := fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	fs.Parse(args[1:])
	switch *format {
	case "table", "csv", "json", "buckets":
	default:
		return fmt.Errorf("unknown format %q (have table|csv|json|buckets)", *format)
	}

	env, err := setupObs(*logMode)
	if err != nil {
		return err
	}
	base, err := resolve(args[0])
	if err != nil {
		return err
	}
	grid, err := parseGrid(*schemes, *backends, *seeds, *loads, *sizes)
	if err != nil {
		return err
	}
	sweep := harness.Sweep{Base: base, Grid: grid}

	expand := env.tracer.Start("expand", nil)
	norms, err := sweep.ExpandNorms()
	expand.End()
	if err != nil {
		return err
	}
	if *format == "buckets" {
		for _, n := range norms {
			if err := scenario.CheckBuckets(n.Spec()); err != nil {
				return fmt.Errorf("-format buckets: %w", err)
			}
		}
	}
	if *telemetryDir != "" {
		// A point given a telemetry block keeps its hash; the block is
		// validated with it.
		for i, n := range norms {
			if sp := n.Spec(); sp.Telemetry == nil {
				sp.Telemetry = sp.DefaultTelemetry()
				if norms[i], err = sp.Normalize(); err != nil {
					return err
				}
			}
		}
	}
	// Points wider than one window worker take that many of the pool's
	// GOMAXPROCS tokens, so the cores bound the sweep, not the pool size.
	env.logger.Info("sweep starting", "scenario", args[0], "points", len(norms),
		"workers", *workers, "cores", runtime.GOMAXPROCS(0), "cache", *cache)

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	runner := &harness.Runner{CacheDir: *cache, Workers: *workers,
		Obs: env.reg, Tracer: env.tracer}
	showProgress := *progress && stderrIsTerminal()
	var last harness.Progress
	runner.OnProgress = func(p harness.Progress) {
		last = p
		if showProgress {
			fmt.Fprintf(os.Stderr,
				"\rfnccbench: %d/%d done (%d cached, %d in flight) %.2fM events/s   ",
				p.Done, p.Total, p.Cached, p.InFlight, p.EventsPerSec/1e6)
		}
	}

	// SIGINT/SIGTERM cancel the sweep cooperatively: in-flight jobs finish
	// and write their cache entries, then the partial table, span trace and
	// metrics snapshot all flush as usual. A second signal kills outright
	// (signal.NotifyContext restores default handling once ctx fires).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, runErr := runner.RunNormsCtx(ctx, norms)
	stop()
	if perr := stopProf(); perr != nil {
		env.logger.Error("profile export failed", "err", perr)
	}
	if showProgress {
		fmt.Fprintln(os.Stderr)
	}
	interrupted := errors.Is(runErr, harness.ErrInterrupted)
	if runErr != nil && !interrupted {
		return runErr
	}
	if interrupted {
		env.logger.Warn("sweep interrupted; printing partial results",
			"done", len(results), "total", len(norms))
	}
	if *telemetryDir != "" {
		for _, res := range results {
			if err := harness.ExportTelemetry(filepath.Join(*telemetryDir, res.Hash), res); err != nil {
				return err
			}
		}
		env.logger.Info("telemetry exported", "dir", *telemetryDir, "points", len(results))
	}

	export := env.tracer.Start("export", nil)
	rows := harness.Rows(results)
	if *agg {
		rows = harness.Aggregate(rows)
	}
	switch *format {
	case "table":
		fmt.Fprint(w, harness.FormatTable(rows))
	case "csv":
		err = harness.WriteCSV(w, rows)
	case "json":
		err = harness.WriteJSON(w, rows)
	case "buckets":
		var tables string
		if tables, err = scenario.FormatBuckets(results); err != nil {
			err = fmt.Errorf("-format buckets needs every point simulated in this process "+
				"(the -cache keeps metrics, not flow records): %w", err)
		} else {
			fmt.Fprint(w, tables)
		}
	}
	export.End()
	if err != nil {
		return err
	}

	if *spansOut != "" {
		if err := writeSpans(*spansOut, env.tracer); err != nil {
			return err
		}
		env.logger.Info("spans exported", "file", *spansOut, "spans", len(env.tracer.Spans()))
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, env.reg); err != nil {
			return err
		}
		env.logger.Info("metrics snapshot written", "file", *metricsOut)
	}
	hits, misses := runner.Stats()
	snap := env.reg.Snapshot()
	env.logger.Info("stats",
		"points", len(results),
		"simulated", misses,
		"cached", hits,
		"replays_verified", snap.Counters[harness.MetricReplayVerified],
		"engine_events", snap.Counters[harness.MetricEngineEvents],
		"sweep_events_per_sec", last.EventsPerSec,
		"fluid_full_passes", snap.Counters[harness.MetricFluidFullPasses],
		"fluid_incremental_passes", snap.Counters[harness.MetricFluidIncrPasses],
	)
	if interrupted {
		return fmt.Errorf("sweep interrupted after %d/%d point(s)", len(results), len(norms))
	}
	return nil
}

// writeSpans flushes the tracer to a JSONL file.
func writeSpans(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := t.WriteJSONL(f)
	cerr := f.Close()
	return errors.Join(werr, cerr)
}

// writeMetrics dumps the registry snapshot as indented JSON.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(reg.Snapshot())
	cerr := f.Close()
	return errors.Join(werr, cerr)
}

// cmdSpans converts an exported span JSONL file to the Chrome trace-event
// format on stdout, loadable in Perfetto or chrome://tracing.
func cmdSpans(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("spans needs a spans.jsonl file (from sweep -spans)")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadSpansJSONL(f)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s contains no spans", args[0])
	}
	return obs.WriteChromeTrace(os.Stdout, spans)
}

// stderrIsTerminal gates the carriage-return progress line: redirected
// stderr (CI logs) gets the plain summary line only.
func stderrIsTerminal() bool {
	st, err := os.Stderr.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
