package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// summary is the five-number summary every timing is published with. Five
// to a dozen samples support no percentile above the third quartile.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize sorts a copy of v. Its quartiles follow Python's
// statistics.quantiles(v, n=4) (the exclusive method), so spreads computed
// here match the pipeline's.
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	last := len(s) - 1
	at := func(p float64) float64 {
		pos := math.Max(0, math.Min(p*float64(len(s)+1)-1, float64(last)))
		lo := int(pos)
		if lo == last {
			return s[last]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return summary{N: len(s), Min: s[0], Q1: at(0.25), Median: at(0.5), Q3: at(0.75), Max: s[last]}
}

func median(v []float64) float64 { return summarize(v).Median }

// rusage reads the process's user+system CPU seconds and its peak resident
// set in MB (ru_maxrss is KB on Linux, the only platform the benchmark
// targets).
func rusage() (cpuSeconds, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// heapCounters reads cumulative heap objects allocated and GC cycles without
// stopping the world.
func heapCounters() (allocs, gcCycles uint64) {
	s := [2]metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cost is the host cost of one measured section.
type cost struct {
	Wall   float64 // seconds
	CPU    float64 // user+sys seconds, whole process
	Allocs float64 // heap objects
	GCs    float64 // GC cycles
}

// measure runs fn and returns what it cost the process.
func measure(fn func() error) (cost, error) {
	a0, g0 := heapCounters()
	c0, _ := rusage()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	c1, _ := rusage()
	a1, g1 := heapCounters()
	return cost{Wall: wall, CPU: c1 - c0, Allocs: float64(a1 - a0), GCs: float64(g1 - g0)}, err
}

// calibrator times a fixed mix of integer work and dependent loads over
// 64 KB, 1 MB and 16 MB: a reading of how fast this host is right now. The
// sandbox's speed drifts by ±20 % over minutes and drops by up to half when a
// neighbour wakes up, and CPU time drifts with wall, so the drift is the
// host's. Scaling a repeat's time by the calibrations taken around it cancels
// most of that: over ten runs of each workload in a noisy hour the quartile
// spread of ns/event was 0.15-0.39 raw and 0.06-0.15 scaled. The loop never
// calls into the repository's code, so no change under test can move it.
type calibrator struct {
	small, mid, big []uint32
	sink            uint64
}

func newCalibrator() *calibrator {
	return &calibrator{small: chaseCycle(64 << 10 / 4), mid: chaseCycle(1 << 20 / 4), big: chaseCycle(16 << 20 / 4)}
}

// chaseCycle builds one random cycle through n slots (Sattolo's shuffle):
// next[i] is the slot after i, so a walk is a chain of dependent loads that
// visits every slot.
func chaseCycle(n int) []uint32 {
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

// calibrationRef is run()'s time on this class of host when it is quiet, so
// that host speed reads 1 there and normalised times still read as
// nanoseconds.
const calibrationRef = 0.040

// run takes about 40 ms and returns its wall seconds.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1_500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			acc += x >> 3
		} else {
			acc ^= x
		}
	}
	walk := func(next []uint32, steps int) {
		p := uint32(0)
		for i := 0; i < steps; i++ {
			p = next[p]
		}
		acc += uint64(p)
	}
	walk(c.small, 1_500_000)
	walk(c.mid, 1_000_000)
	walk(c.big, 150_000)
	c.sink += acc
	return time.Since(t0).Seconds()
}

// speedometer turns calibrations into the host's speed over the interval
// since the previous reading: calibrationRef over the mean of the
// calibration that opened the interval and the one that closes it. A
// closing calibration is taken at most every 0.3 s, so short bodies are not
// mostly calibration; between readings the last one stands.
type speedometer struct {
	cal  *calibrator
	last float64
	at   time.Time
}

func newSpeedometer() *speedometer {
	s := &speedometer{cal: newCalibrator()}
	s.cal.run() // page the arrays in
	s.last, s.at = s.cal.run(), time.Now()
	return s
}

func (s *speedometer) speed() float64 {
	opened := s.last
	if time.Since(s.at) > 300*time.Millisecond {
		s.last, s.at = s.cal.run(), time.Now()
	}
	return calibrationRef / ((opened + s.last) / 2)
}
