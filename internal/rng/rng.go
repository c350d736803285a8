// Package rng provides the pseudo-random infrastructure used by every
// stochastic solver in this repository.
//
// Local search is extremely sensitive to the quality and independence of its
// random streams: the paper (§III-B3) observes that when hundreds or
// thousands of walkers run at once, naively seeded library generators are
// not good enough, and advocates deriving per-process seeds from a chaotic
// map (as in the Trident generator). This package therefore provides:
//
//   - RNG: a fast, allocation-free xoshiro256** generator with the usual
//     convenience methods (Intn, Perm, Shuffle, Float64...);
//   - SplitMix64: the stateless mixing function used to expand one 64-bit
//     seed into full generator state (and to decorrelate poor seeds);
//   - ChaoticSeeder (see chaotic.go): a piecewise-linear chaotic map that
//     turns one master seed into an arbitrarily long sequence of
//     well-distributed, reproducible per-walker seeds.
//
// Everything here is deterministic given a seed, which is what makes the
// paper's experiments reproducible run-for-run.
package rng

import "math/bits"

// RNG is a xoshiro256** pseudo-random generator.
//
// xoshiro256** passes BigCrush, has a 2^256−1 period, and needs only four
// words of state, so each of the thousands of virtual walkers in the
// lockstep cluster simulator can own one cheaply. The zero value is invalid;
// use New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator whose state is derived from seed via SplitMix64,
// as recommended by the xoshiro authors: even adjacent integer seeds yield
// decorrelated streams.
func New(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Seed resets the generator state from a 64-bit seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	r.s0 = SplitMix64(&sm)
	r.s1 = SplitMix64(&sm)
	r.s2 = SplitMix64(&sm)
	r.s3 = SplitMix64(&sm)
	// All-zero state is the one fixed point of xoshiro; SplitMix64 cannot
	// produce four zeros from any seed, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 0x9E3779B97F4A7C15
	}
}

// SplitMix64 advances *state and returns the next value of the SplitMix64
// sequence. It is used both as a seed expander and as a cheap stateless
// mixer for decorrelating walker identifiers.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
//
// It uses Lemire's multiply-shift rejection method, which avoids the modulo
// bias of naive `Uint64() % n` — exactly the kind of subtle non-uniformity
// §III-B3 warns about.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire rejection sampling: unbiased for every n.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniformly random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniformly random permutation of {0, ..., n-1}.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// PermInto fills p with a uniformly random permutation of {0, ..., len(p)-1}
// without allocating. Every solver's restart path uses this.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
