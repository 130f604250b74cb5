package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// cmdServe runs the long-running sweep service: POST sweeps, stream
// results, share one content-addressed cache and one worker pool across
// every client. SIGINT/SIGTERM drain gracefully — in-flight points finish
// and write their cache entries, queued points are skipped — so a
// restarted server resumes interrupted sweeps from cache.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":8080", "address to serve the sweep API on")
	cache := fs.String("cache", ".fnccbench", "result cache directory shared across restarts (empty disables)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	logMode := fs.String("log", "text", "status log format: text|json|off")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	fs.Parse(args)

	env, err := setupObs(*logMode)
	if err != nil {
		return err
	}
	runner := &harness.Runner{CacheDir: *cache, Workers: *workers,
		Obs: env.reg, Tracer: env.tracer}
	srv, err := sweepd.New(sweepd.Config{
		Runner:  runner,
		Workers: *workers,
		Logger:  env.logger,
	})
	if err != nil {
		return err
	}

	l, err := obs.Listen(*listen)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	env.logger.Info("sweep server listening", "addr", l.Addr().String(),
		"cache", *cache, "endpoints", "POST /sweeps  GET /sweeps/{id}/results  /progress  /debug/vars")

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(l) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		return err
	}
	stop()
	env.logger.Info("shutting down", "drain_timeout", *drainTimeout)
	// Refuse new work and let in-flight jobs cache their results before the
	// HTTP listener closes, so streaming clients see every finished point.
	drainErr := srv.Drain(*drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	env.logger.Info("sweep server stopped")
	return drainErr
}

// cmdSubmit posts a sweep to a running server and prints the sweep id and
// results path; with -watch it stays attached and streams the points.
func cmdSubmit(args []string) error {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("submit needs a scenario name or spec file first")
	}
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "sweep server base URL")
	schemes := fs.String("schemes", "", "comma-separated scheme names")
	backends := fs.String("backends", "", "comma-separated backends to sweep as a grid dimension: packet|fluid")
	seeds := fs.String("seeds", "", "comma-separated int64 seeds")
	loads := fs.String("loads", "", "comma-separated target loads")
	sizes := fs.String("sizes", "", "comma-separated topology sizes (K / senders / fanout)")
	watch := fs.Bool("watch", false, "stay attached and stream the results as they land")
	fs.Parse(args[1:])

	base, err := resolve(args[0])
	if err != nil {
		return err
	}
	grid, err := parseGrid(*schemes, *backends, *seeds, *loads, *sizes)
	if err != nil {
		return err
	}
	body, err := json.Marshal(sweepd.SubmitRequest{Base: base, Grid: grid})
	if err != nil {
		return err
	}
	resp, err := http.Post(strings.TrimRight(*addr, "/")+"/sweeps",
		"application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return serverError(resp)
	}
	var sr sweepd.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return fmt.Errorf("decode submit response: %w", err)
	}
	fmt.Printf("sweep %s accepted: %d point(s)\n", sr.ID, sr.Points)
	fmt.Printf("results: %s%s\n", *addr, sr.Results)
	if !*watch {
		return nil
	}
	return streamResults(*addr, sr.ID, 0)
}

// cmdWatch attaches to a sweep on a running server and streams its
// remaining points (all points when it already finished).
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "sweep server base URL")
	from := fs.Int("from", 0, "skip the first N streamed points (resume)")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("watch needs a sweep id (see GET /sweeps)")
	}
	return streamResults(*addr, fs.Arg(0), *from)
}

// streamResults follows a sweep's NDJSON stream, printing one line per
// point until the sweep completes.
func streamResults(addr, id string, from int) error {
	url := strings.TrimRight(addr, "/") + "/sweeps/" + id + "/results"
	if from > 0 {
		url += "?from=" + strconv.Itoa(from)
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serverError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var done, cached, errored, skipped int
	for sc.Scan() {
		var p sweepd.Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return fmt.Errorf("bad stream line: %w", err)
		}
		switch {
		case p.Skipped:
			skipped++
			fmt.Printf("point %-3d skipped (server drained)\n", p.Index)
		case p.Error != "":
			errored++
			fmt.Printf("point %-3d ERROR %s\n", p.Index, p.Error)
		default:
			done++
			src := "simulated"
			if p.Cached {
				cached++
				src = "cached"
			}
			fmt.Printf("point %-3d %-9s %s\n", p.Index, src, pointLine(p.Row))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Printf("sweep %s: %d done (%d cached), %d errored, %d skipped\n",
		id, done, cached, errored, skipped)
	if errored > 0 || skipped > 0 {
		return fmt.Errorf("sweep %s incomplete: %d errored, %d skipped", id, errored, skipped)
	}
	return nil
}

// pointLine compacts a result row to its identity plus its first few
// metrics in the sweep table's column order — the stream is progress
// feedback, not the export format.
func pointLine(row *harness.Row) string {
	if row == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", row.Scheme, row.Kind)
	if row.Name != "" {
		fmt.Fprintf(&b, " %s", row.Name)
	}
	names := make([]string, 0, len(row.Metrics))
	for k := range row.Metrics {
		names = append(names, k)
	}
	scenario.SortMetrics(names)
	if len(names) > 4 {
		names = names[:4]
	}
	for _, k := range names {
		fmt.Fprintf(&b, "  %s=%g", k, row.Metrics[k])
	}
	return b.String()
}

// parseGrid converts the comma-separated grid flags (shared by submit and
// sweep) into a harness.Grid.
func parseGrid(schemes, backends, seeds, loads, sizes string) (harness.Grid, error) {
	var g harness.Grid
	g.Schemes = splitList(schemes)
	g.Backends = splitList(backends)
	for _, s := range splitList(seeds) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return g, fmt.Errorf("bad seed %q: %w", s, err)
		}
		g.Seeds = append(g.Seeds, v)
	}
	for _, s := range splitList(loads) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return g, fmt.Errorf("bad load %q: %w", s, err)
		}
		g.Loads = append(g.Loads, v)
	}
	for _, s := range splitList(sizes) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return g, fmt.Errorf("bad size %q: %w", s, err)
		}
		g.Sizes = append(g.Sizes, v)
	}
	return g, nil
}

// serverError surfaces the server's JSON {"error": ...} body as a CLI
// error, falling back to the status text.
func serverError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (%s)", e.Error, resp.Status)
	}
	return fmt.Errorf("server: %s", resp.Status)
}
