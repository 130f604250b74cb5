package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xoshiro256**). The experiments need reproducible
// streams that are stable across Go releases, which math/rand's global
// source does not guarantee; rolling the generator also keeps the module
// stdlib-only in spirit (no behavioural dependence on rand internals).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	x := uint64(seed)
	for i := range r.s {
		// splitmix64 to spread a possibly low-entropy seed.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponentially distributed value with mean 1,
// via inverse transform. Used for Poisson inter-arrival times.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	// Guard u == 0: -log(0) is +Inf.
	for u == 0 {
		u = r.Float64()
	}
	return -ln(u)
}

// Fork derives an independent child stream; children created in the same
// order from the same parent are identical across runs.
func (r *RNG) Fork() *RNG {
	return NewRNG(int64(r.Uint64()))
}

func ln(x float64) float64 { return math.Log(x) }
