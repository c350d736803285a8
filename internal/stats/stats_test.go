package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicAggregates(t *testing.T) {
	s := NewSample(4, 1, 3, 2, 5)
	if s.N() != 5 {
		t.Fatalf("N=%d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
	if s.Median() != 3 {
		t.Fatalf("median %v", s.Median())
	}
}

func TestEmptySampleSafe(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample aggregates not zero")
	}
	sum := s.Summarize()
	if sum.N != 0 {
		t.Fatal("empty summary wrong")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := NewSample(0, 10)
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("Quantile(0.5)=%v want 5", got)
	}
	if got := s.Quantile(0.25); got != 2.5 {
		t.Fatalf("Quantile(0.25)=%v want 2.5", got)
	}
	if s.Quantile(0) != 0 || s.Quantile(1) != 10 {
		t.Fatal("extreme quantiles wrong")
	}
	if s.Quantile(-1) != 0 || s.Quantile(2) != 10 {
		t.Fatal("out-of-range quantiles not clamped")
	}
}

func TestStdDev(t *testing.T) {
	s := NewSample(2, 4, 4, 4, 5, 5, 7, 9)
	want := math.Sqrt(32.0 / 7.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev %v want %v", got, want)
	}
	if NewSample(1).StdDev() != 0 {
		t.Fatal("singleton stddev should be 0")
	}
}

func TestSummarizeRatio(t *testing.T) {
	s := NewSample(1, 2, 3, 10)
	sum := s.Summarize()
	if sum.MeanOverMin != 4 {
		t.Fatalf("ratio %v want 4", sum.MeanOverMin)
	}
	if !sum.MedianBelowMeanFrac {
		t.Fatal("median 2.5 < mean 4 should be flagged")
	}
	if sum.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestSpeedupAndEfficiency(t *testing.T) {
	if Speedup(100, 10) != 10 {
		t.Fatal("speedup wrong")
	}
	if !math.IsNaN(Speedup(1, 0)) {
		t.Fatal("zero-time speedup should be NaN")
	}
}

func TestAddAfterQuantile(t *testing.T) {
	s := NewSample(3, 1)
	_ = s.Median() // forces sort
	s.Add(2)
	if s.Median() != 2 {
		t.Fatalf("median after Add = %v, want 2", s.Median())
	}
}

func TestValuesIsCopy(t *testing.T) {
	s := NewSample(1, 2)
	v := s.Values()
	v[0] = 99
	if s.Min() == 99 {
		t.Fatal("Values leaked internal storage")
	}
}

// Property: min ≤ quantile(q) ≤ max and quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1f, q2f float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q1 := math.Mod(math.Abs(q1f), 1)
		q2 := math.Mod(math.Abs(q2f), 1)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		s := NewSample(raw...)
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && s.Min() <= a && b <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
