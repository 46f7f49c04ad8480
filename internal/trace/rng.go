package trace

import "math"

// RNG is a small, fast, deterministic xorshift64* generator. Every source of
// randomness in the simulator (workload generation, sampling-state
// transitions, LRU-PEA bank selection) draws from an explicitly seeded RNG so
// that runs are reproducible bit-for-bit, which the experiment harness relies
// on when comparing policies on identical access streams.
type RNG struct {
	s uint64
}

// NewRNG returns a generator seeded with seed (a zero seed is remapped, as
// xorshift has an all-zeroes fixed point).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{s: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.s = xorshift(r.s)
	return r.s * rngMul
}

// xorshift advances the generator state by one step; rngMul scrambles a
// state into its output.
func xorshift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

const rngMul = 0x2545f4914f6cdd1d

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace.RNG.Intn: n must be positive")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// boolThreshold returns the integer form of Bool(p): for an output x,
// Bool draws true exactly when x>>11 < boolThreshold(p). Float64 is
// k/2^53 for k = x>>11, exact, so k/2^53 < p holds exactly when
// k < ceil(p·2^53); p ≤ 0 and NaN never draw true, p ≥ 1 always does.
func boolThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}
