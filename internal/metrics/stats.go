// Package metrics provides the statistical machinery behind the paper's
// evaluation: summary statistics over replicated simulation runs (the paper
// averages 50 runs per data point), empirical CDFs (Figure 4), and ASCII
// table/series rendering for the experiment harness output.
package metrics

import (
	"fmt"
	"math"
)

// Summary accumulates scalar observations with Welford's online algorithm,
// which is numerically stable regardless of magnitude.
type Summary struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean: 1.96·σ/√n (0 with fewer than 2 samples).
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// String renders "mean ± ci95 (n=N)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean(), s.CI95(), s.n)
}
