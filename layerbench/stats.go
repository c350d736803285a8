package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the set of percentiles a tail is reported at, in basis
// points (integers, so the count beyond each is exact).
var tailLadder = []int{9999, 9990, 9900, 9500, 9000}

// tail returns the highest percentile of the ladder that leaves at least
// ten samples beyond it, with that percentile and the count beyond. Lists
// too short for p90 report their median.
func tail(xs []float64) (value, pct float64, beyond int) {
	for _, bp := range tailLadder {
		if b := len(xs) * (10000 - bp) / 10000; b >= 10 {
			return quantile(xs, float64(bp)/10000), float64(bp) / 100, b
		}
	}
	return median(xs), 50, len(xs) / 2
}

// tailNote formats a tail with its sample count for the report.
func tailNote(what string, xs []float64) string {
	v, p, b := tail(xs)
	return fmt.Sprintf("%s = p%g of %d samples (%d beyond) = %.4f ms", what, p, len(xs), b, v)
}

// seedStream is the benchmark's seeded input generator.
func seedStream(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// distinctSeeds draws n distinct non-zero seeds that are not in avoid.
func distinctSeeds(r *rand.Rand, n int, avoid map[uint64]bool) []uint64 {
	out := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n+len(avoid))
	for k := range avoid {
		seen[k] = true
	}
	for len(out) < n {
		s := r.Uint64()
		if s == 0 || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}
