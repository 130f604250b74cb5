// Command bench is the repository's benchmark: one process runs one named
// workload, checks the simulated outputs, and prints every metric by name
// with its unit. See README.md for the tables and the conventions.
//
//	bash bench/run.sh --workload fct-websearch --seed 1 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// record is one run as -record appends it and -compare reads it.
type record struct {
	Machine   machine            `json:"machine"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]summary `json:"samples,omitempty"`
}

// machine is the fingerprint every row carries, so numbers from different
// hosts are never compared by accident.
type machine struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() machine {
	m := machine{CPU: "unknown", Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: os.Getenv("BENCH_COMMIT")}
	if m.Commit == "" {
		m.Commit = "unknown"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run (see -list)")
		seed       = flag.Int64("seed", goldenSeed, "workload seed; reaches the simulator only as generated inputs")
		seconds    = flag.Float64("seconds", runSeconds, "how long to measure")
		trace      = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		list       = flag.Bool("list", false, "list the workloads and exit")
		manifest   = flag.Bool("manifest", false, "print BENCHMARK.json as the tables in this package define it and exit")
		compare    = flag.Bool("compare", false, "compare two -record files: bench -compare a.jsonl b.jsonl")
		recordPath = flag.String("record", "", "append this run as one JSON line to the file")
		goldenPath = flag.String("golden", "bench/golden.json", "golden digests at seed 1")
		update     = flag.Bool("update-golden", false, "rewrite this workload's golden digests (seed 1 only)")
		outDir     = flag.String("out", "bench/out", "where the traced run writes its trace and profile")
		scratch    = flag.String("scratch", ".bench_build/tmp", "scratch root for cache directories")
	)
	flag.Parse()
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-14s %s\n", w.name, w.why)
		}
		return
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.jsonl b.jsonl")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal("unknown workload %q; -list shows them", *name)
	}
	if *update && *seed != goldenSeed {
		fatal("-update-golden needs -seed %d", goldenSeed)
	}

	// Never more threads than min(nproc, 2): the sweep pool and the
	// sharded executor both use two.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	gold, err := loadGolden(*goldenPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		fatal("golden digests: %v", err)
	}
	if gold == nil {
		gold = golden{}
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatal("scratch: %v", err)
	}
	dir, err := os.MkdirTemp(*scratch, w.name+"-")
	if err != nil {
		fatal("scratch: %v", err)
	}
	r := &run{w: w, seed: inputSeed(*seed), seconds: *seconds, env: &env{scratch: dir}, outDir: *outDir,
		check: newChecker(w, *seed, gold, *update)}
	var rec record
	if *trace != 0 {
		rec, err = r.traced()
	} else {
		rec, err = r.endToEnd()
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	if *update {
		if err := gold.save(*goldenPath); err != nil {
			fatal("golden digests: %v", err)
		}
		fmt.Printf("golden digests of %s rewritten in %s\n", w.name, *goldenPath)
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, rec); err != nil {
			fatal("record: %v", err)
		}
	}
	printResult(rec, *trace != 0)
	if !rec.Correct {
		os.Exit(1)
	}
}

// inputSeed folds any --seed into [1, 2^40]: every spec accepts those, with
// room for the sub-seed and grid offsets, and no two of a run's inputs
// collide (seed 0 would otherwise normalise to the default seed 1).
func inputSeed(seed int64) int64 {
	const span = 1 << 40
	if seed %= span; seed <= 0 {
		seed += span
	}
	return seed
}

// runSeconds is how long the pipeline lets one run measure.
const runSeconds = 8

// manifestJSON renders BENCHMARK.json from the workload and metric tables,
// so the file at the repository root cannot drift from what runs (a test
// compares them).
func manifestJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, named{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal("manifest: %v", err)
	}
	return append(b, '\n')
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printResult prints the run's last line: the one JSON object the pipeline
// reads, holding every end-to-end metric (or, traced, every per-layer one).
func printResult(rec record, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{rec.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal("result: %v", err)
	}
	fmt.Println(string(b))
}
