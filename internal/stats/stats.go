// Package stats provides the run-statistics aggregation the paper's tables
// report: average, median, minimum, maximum over repeated stochastic runs,
// plus speed-up helpers for the parallel experiments.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations (times in seconds, iteration
// counts...) and answers the aggregate queries of Tables I–V.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns an empty sample, optionally pre-loaded with values.
func NewSample(values ...float64) *Sample {
	s := &Sample{}
	for _, v := range values {
		s.Add(v)
	}
	return s
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations in insertion order is NOT
// guaranteed — they may have been sorted by a quantile query.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

func (s *Sample) sortInPlace() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.xs {
		sum += v
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortInPlace()
	return s.xs[0]
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortInPlace()
	return s.xs[len(s.xs)-1]
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) with linear interpolation
// between order statistics.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	s.sortInPlace()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// StdDev returns the sample standard deviation (n−1 denominator).
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.xs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Summary is the (avg, med, min, max) row format of Tables III–V.
type Summary struct {
	N                   int
	Mean, Median        float64
	Min, Max            float64
	StdDev              float64
	MeanOverMin         float64 // the "ratio" column of Table I
	MedianBelowMeanFrac bool    // median < mean ⇒ more fast runs than slow (§V-B)
}

// Summarize computes all aggregate fields at once.
func (s *Sample) Summarize() Summary {
	min := s.Min()
	mean := s.Mean()
	ratio := 0.0
	if min > 0 {
		ratio = mean / min
	}
	return Summary{
		N:                   s.N(),
		Mean:                mean,
		Median:              s.Median(),
		Min:                 min,
		Max:                 s.Max(),
		StdDev:              s.StdDev(),
		MeanOverMin:         ratio,
		MedianBelowMeanFrac: s.Median() < mean,
	}
}

// Speedup returns base/t — the speed-up of time t relative to a baseline
// time (e.g. sequential vs K cores, or 32-core vs K cores in Figure 2).
// It returns NaN when t is zero.
func Speedup(base, t float64) float64 {
	if t == 0 {
		return math.NaN()
	}
	return base / t
}

// String formats a summary like a paper table row.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d avg=%.3f med=%.3f min=%.3f max=%.3f sd=%.3f",
		sm.N, sm.Mean, sm.Median, sm.Min, sm.Max, sm.StdDev)
}
