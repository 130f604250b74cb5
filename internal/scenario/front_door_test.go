package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// frontDoorSweeps are the two Fig 14/15 bucket-table pins: k=4 at load 0.5
// over seeds 1 and 2, small enough to run in about a second each.
var frontDoorSweeps = []struct {
	name    string
	cdf     string
	durUs   int64
	schemes []string
}{
	{"buckets-hadoop", "hadoop", 1000, []string{"DCQCN", "HPCC", "FNCC"}},
	{"buckets-websearch", "websearch", 500, []string{"FNCC", "HPCC"}},
}

var frontDoorSeeds = []int64{1, 2}

// bitsLine pins one number by its bit pattern, with the value for readers.
func bitsLine(b *strings.Builder, label string, v float64) {
	fmt.Fprintf(b, "%s %016x (%v)\n", label, math.Float64bits(v), v)
}

// frontDoorNotify is the Fig 2/12 notification matrix: four schemes at three
// hop positions, microseconds from congestion onset to the victim's first
// rate decrease.
func frontDoorNotify(t *testing.T) string {
	rows, err := exp.RunNotify(exp.DefaultNotifyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rows {
		bitsLine(&b, fmt.Sprintf("%s %s", r.Scheme, r.Hop), timeUs(r.Latency))
	}
	return b.String()
}

// frontDoorBuckets is the full text of the per-size-bucket slowdown tables
// and headline reductions, each scheme's collectors pooled across seeds.
func frontDoorBuckets(t *testing.T, cdf string, durUs int64, schemes []string) string {
	base := exp.DefaultFCTConfig(exp.SchemeFNCC, cdf)
	base.K = 4
	base.Horizon = sim.Time(durUs) * sim.Microsecond
	base.Load = 0.5
	merged, _, err := exp.RunFCTSweep(base, schemes, frontDoorSeeds)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := exp.FormatFCTTables(cdf, merged, schemes)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(tables+"\n"+exp.FormatHeadlines(cdf, merged), "\n") + "\n"
}

// frontDoorMicro is the Fig 9 summary row per scheme at 100 G: the five
// numbers the micro table prints.
func frontDoorMicro(t *testing.T) string {
	rs, err := exp.RunMicroAll(exp.AllSchemes(), 100e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rs {
		bitsLine(&b, r.Scheme+" first_slowdown_us", timeUs(r.FirstSlowdown))
		bitsLine(&b, r.Scheme+" queue_peak_bytes", r.QueuePeak)
		bitsLine(&b, r.Scheme+" mean_util", r.MeanUtil)
		bitsLine(&b, r.Scheme+" pause_frames", float64(r.PauseFrames))
		bitsLine(&b, r.Scheme+" drops", float64(r.Drops))
	}
	return b.String()
}

// TestGoldenFrontDoor is the licence for deleting the second front door:
// testdata/golden_front_door.txt was written from exp.RunNotify,
// exp.RunFCTSweep and exp.RunMicroAll, the entry points behind fnccsim and
// fctsweep, and whatever produces these figures afterwards must reproduce
// every bit and byte of it. Regenerate with `go test -run
// TestGoldenFrontDoor -update` only in a change that says which simulated
// number it means to move.
func TestGoldenFrontDoor(t *testing.T) {
	got := map[string]string{"notify": frontDoorNotify(t), "micro": frontDoorMicro(t)}
	order := []string{"notify"}
	for _, s := range frontDoorSweeps {
		got[s.name] = frontDoorBuckets(t, s.cdf, s.durUs, s.schemes)
		order = append(order, s.name)
	}
	order = append(order, "micro")
	checkGoldenSections(t, "testdata/golden_front_door.txt", order, got)
}
