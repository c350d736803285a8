package rng

import "math"

// ChaoticSeeder derives a reproducible sequence of well-distributed 64-bit
// seeds from a single master seed by iterating a piecewise-linear chaotic
// map (PLCM), following the approach the paper adopts from the Trident
// generator (Orue et al., §III-B3): when launching hundreds or thousands of
// walkers, per-walker seeds must be both reproducible and free of the
// correlations that simple counters or time-based seeds introduce.
//
// The map is the classic skew-tent PLCM
//
//	F(x) = x/p            if 0 <= x < p
//	       (x-p)/(1/2-p)  if p <= x < 1/2
//	       F(1-x)         if 1/2 <= x <= 1
//
// which is ergodic with a uniform invariant density on (0,1) for any control
// parameter p in (0, 1/2). Each emitted seed mixes 64 bits of the orbit
// through SplitMix64 so that the limited float mantissa does not bias the
// low bits.
type ChaoticSeeder struct {
	x     float64 // current orbit point in (0,1)
	p     float64 // control parameter in (0, 1/2)
	mixer uint64  // SplitMix64 stream combined with the orbit
}

// Subseed mixes a stage index k into a master seed, so each stage of a
// long run (a racing window, a campaign epoch) derives its own walker
// seeds. Stage 0 is the master seed untouched: a run that never leaves
// its first stage walks exactly the trajectories a single-stage run with
// the same seed would. Later stages XOR in k times the golden-ratio odd
// constant.
func Subseed(master, k uint64) uint64 {
	if k == 0 {
		return master
	}
	return master ^ (k * 0x9E3779B97F4A7C15)
}

// NewChaoticSeeder returns a seeder initialised from master. Two seeders
// with different master seeds produce unrelated seed sequences; the same
// master reproduces the identical sequence (the property the experiments
// rely on for replay).
func NewChaoticSeeder(master uint64) *ChaoticSeeder {
	sm := master
	// Derive the initial orbit point and control parameter from the master
	// seed; keep both away from the map's fixed points and borders.
	xBits := SplitMix64(&sm)
	pBits := SplitMix64(&sm)
	x := (float64(xBits>>11)/(1<<53))*0.9998 + 0.0001 // (0.0001, 0.9999)
	p := (float64(pBits>>11)/(1<<53))*0.4 + 0.05      // (0.05, 0.45)
	return &ChaoticSeeder{x: x, p: p, mixer: SplitMix64(&sm)}
}

// step advances the orbit one iteration of the skew-tent map.
func (c *ChaoticSeeder) step() {
	x := c.x
	if x > 0.5 {
		x = 1 - x
	}
	if x < c.p {
		x /= c.p
	} else {
		x = (x - c.p) / (0.5 - c.p)
	}
	// Guard against the orbit collapsing onto 0 or 1 through floating-point
	// rounding (measure-zero in exact arithmetic, possible in binary64).
	if x <= 0 || x >= 1 || math.IsNaN(x) {
		x = 0.3715196515412347 // arbitrary interior restart point
	}
	c.x = x
}

// Next returns the next seed in the sequence.
func (c *ChaoticSeeder) Next() uint64 {
	// Burn a few orbit steps between emissions so consecutive seeds come
	// from well-separated orbit segments.
	for i := 0; i < 4; i++ {
		c.step()
	}
	orbitBits := uint64(c.x * (1 << 63))
	s := orbitBits ^ SplitMix64(&c.mixer)
	return SplitMix64(&s)
}

// Seeds returns the next n seeds (convenience for fleet launch).
func (c *ChaoticSeeder) Seeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.Next()
	}
	return out
}
