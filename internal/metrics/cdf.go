package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function over a sample set —
// the object behind the paper's Figure 4 (CDF of client→target delays).
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF; it copies and sorts the samples.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X ≤ x), the fraction of samples not exceeding x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with value >= x; we want
	// values <= x, so search for the first value > x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Series samples the CDF at steps+1 evenly spaced points over [lo, hi],
// returning (x, y) pairs — the plottable form of Figure 4.
func (c *CDF) Series(lo, hi float64, steps int) []Point {
	if steps < 1 {
		steps = 1
	}
	out := make([]Point, 0, steps+1)
	for i := 0; i <= steps; i++ {
		x := lo + (hi-lo)*float64(i)/float64(steps)
		out = append(out, Point{X: x, Y: c.At(x)})
	}
	return out
}

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// FormatSeries renders points as gnuplot-style two-column text.
func FormatSeries(points []Point) string {
	var b strings.Builder
	for _, p := range points {
		fmt.Fprintf(&b, "%.4f\t%.4f\n", p.X, p.Y)
	}
	return b.String()
}
