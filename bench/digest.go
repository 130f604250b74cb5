package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// hostDependent are the result metrics that vary with the machine and its
// load; every other metric of a scenario.Result is deterministic for a spec
// and enters the digest.
var hostDependent = map[string]bool{
	"engine_events_per_sec": true,
	"mallocs_per_run":       true,
	"alloc_bytes_per_run":   true,
}

// shardOnly are the metrics that describe how a sharded packet run executed
// rather than what it simulated: the parallel_* extras, and the two pool
// rates, since every shard warms its own event slab and packet pool. A
// sharded run must equal its serial twin on everything else.
var shardOnly = map[string]bool{
	"event_reuse_rate":     true,
	"pool_hit_rate":        true,
	"parallel_workers":     true,
	"parallel_shards":      true,
	"parallel_windows":     true,
	"cross_shard_messages": true,
}

// digest is the SHA-256 over the sorted "name=Float64bits" lines of the
// deterministic metrics. skip names further key sets to leave out.
func digest(m map[string]float64, skip ...map[string]bool) string {
	names := make([]string, 0, len(m))
next:
	for k := range m {
		if hostDependent[k] {
			continue
		}
		for _, s := range skip {
			if s[k] {
				continue next
			}
		}
		names = append(names, k)
	}
	sort.Strings(names)
	var buf []byte
	for _, k := range names {
		buf = append(append(buf, k...), '=')
		buf = append(strconv.AppendUint(buf, math.Float64bits(m[k]), 16), '\n')
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// combine folds an ordered list of digests into one, so a whole sweep grid
// pins with a single golden entry.
func combine(digests []string) string {
	sum := sha256.Sum256([]byte(strings.Join(digests, "\n")))
	return hex.EncodeToString(sum[:])
}

// goldenSeed is the only seed with committed digests; any other seed falls
// back to the self-consistency checks (repeat to repeat, serial to sharded,
// cold to warm to served).
const goldenSeed = 1

// golden maps workload -> point name -> digest at goldenSeed.
type golden map[string]map[string]string

func loadGolden(path string) (golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := golden{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g golden) save(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
