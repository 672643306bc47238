package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.n != 8 {
		t.Fatalf("n = %d", s.n)
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// Sample std of this classic set: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std()-want) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std(), want)
	}
	if s.CI95() <= 0 {
		t.Fatal("CI95 must be positive for n > 1")
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary not zero")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("single-sample summary wrong")
	}
}

func TestSummaryMatchesNaiveComputation(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, v := range vals {
			s.Add(v)
			sum += v
		}
		mean := sum / float64(len(vals))
		var sq float64
		for _, v := range vals {
			sq += (v - mean) * (v - mean)
		}
		naiveVar := sq / float64(len(vals)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return math.Abs(s.Mean()-mean) < 1e-9*math.Max(1, math.Abs(mean)) &&
			math.Abs(s.Var()-naiveVar) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	cases := []struct{ x, want float64 }{
		{5, 0}, {10, 0.25}, {15, 0.25}, {20, 0.5}, {39.99, 0.75}, {40, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Fatalf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		prev := -1.0
		// Probe at sorted positions.
		xs := append([]float64(nil), vals...)
		for _, x := range xs {
			y := c.At(x)
			if y < 0 || y > 1 {
				return false
			}
			_ = prev
		}
		// Monotonicity over increasing probes.
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		last := -1.0
		for i := 0; i <= 20; i++ {
			x := lo + (hi-lo)*float64(i)/20
			y := c.At(x)
			if y < last {
				return false
			}
			last = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFSeries(t *testing.T) {
	c := NewCDF([]float64{100, 200, 300})
	pts := c.Series(100, 300, 4)
	if len(pts) != 5 {
		t.Fatalf("series has %d points", len(pts))
	}
	if pts[0].X != 100 || pts[4].X != 300 {
		t.Fatalf("series endpoints wrong: %v", pts)
	}
	if pts[4].Y != 1 {
		t.Fatalf("series must reach 1 at max: %v", pts[4].Y)
	}
	out := FormatSeries(pts)
	if !strings.Contains(out, "\t") || !strings.Contains(out, "\n") {
		t.Fatal("FormatSeries layout wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("alg", "pQoS", "R")
	tb.AddRow("GreZ-GreC", "0.94", "0.66")
	tb.AddRow("RanZ-VirC", "0.61")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "alg") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(lines[2], "GreZ-GreC") || !strings.Contains(lines[2], "0.94") {
		t.Fatalf("row content missing:\n%s", out)
	}
	if len(tb.rows) != 2 {
		t.Fatalf("%d rows", len(tb.rows))
	}
}
