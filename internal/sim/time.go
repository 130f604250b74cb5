// Package sim provides a deterministic discrete-event simulation engine
// with picosecond time resolution.
//
// The engine is the substrate every other package builds on: links schedule
// serialization and propagation completions, switches schedule control-timer
// ticks (RoCC PI updates, INT table refreshes), and hosts schedule pacing
// deadlines and retransmission timeouts. Events scheduled for the same
// instant fire in scheduling order, which makes runs bit-reproducible for a
// given seed.
package sim

import "fmt"

// Time is a simulation timestamp or duration in picoseconds.
//
// Picoseconds keep every quantity in the paper integral: one 1518-byte MTU
// serializes in exactly 30360 ps at 400 Gbps, 60720 ps at 200 Gbps and
// 121440 ps at 100 Gbps, and the paper's 1.5 us propagation delay is
// 1500000 ps. An int64 covers about 106 days, far beyond any experiment.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the time with an adaptive unit, e.g. "305.2us".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromSeconds converts floating-point seconds to Time, rounding to the
// nearest picosecond.
func FromSeconds(s float64) Time { return Time(float64(s*float64(Second)) + 0.5) }

// TxTime returns the serialization delay of sizeBytes at rateBps.
//
// The computation is ordered to avoid int64 overflow for realistic inputs:
// bytes up to ~1 GB and rates up to ~10 Tbps.
func TxTime(sizeBytes int, rateBps int64) Time {
	if rateBps <= 0 {
		panic(fmt.Sprintf("sim.TxTime: non-positive rate %d", rateBps))
	}
	bits := int64(sizeBytes) * 8
	if bits <= (1<<63-1)/int64(Second) {
		// Exact integer path; covers every packet-sized input (up to ~1 MB).
		return Time(bits * int64(Second) / rateBps)
	}
	// Bulk path for giant transfers: integer seconds plus a float remainder.
	// The remainder is < 1 s, so float64 rounding error is < 1 ps relative
	// to a picosecond-scale result.
	sec := bits / rateBps
	rem := bits % rateBps
	frac := float64(float64(rem) / float64(rateBps) * float64(Second))
	return Time(sec)*Second + Time(frac+0.5)
}

// BytesAt returns how many bytes a link at rateBps serializes in d.
func BytesAt(rateBps int64, d Time) int64 {
	if d <= 0 {
		return 0
	}
	// rate * d / (8 * Second), split to avoid overflow.
	sec := int64(d) / int64(Second)
	rem := int64(d) % int64(Second)
	return rateBps/8*sec + (rateBps*rem)/(8*int64(Second))
}
