package runner

import (
	"errors"
	"sync/atomic"
	"testing"

	"dvecap/internal/xrand"
)

func TestRunReturnsResultsInOrder(t *testing.T) {
	got, err := Run(1, 20, func(rep int, rng *xrand.RNG) (int, error) {
		return rep * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestRunDeterministicPerReplication(t *testing.T) {
	f := func() []float64 {
		out, err := Run(42, 16, func(rep int, rng *xrand.RNG) (float64, error) {
			// Draw a variable number of values to stress scheduling
			// independence.
			n := rep%3 + 1
			var last float64
			for i := 0; i < n; i++ {
				last = rng.Float64()
			}
			return last, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := f(), f()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replication %d not deterministic", i)
		}
	}
}

func TestRunSeedsAreIndependentStreams(t *testing.T) {
	out, err := Run(7, 8, func(rep int, rng *xrand.RNG) (float64, error) {
		return rng.Float64(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("two replications drew identical first values: %v", v)
		}
		seen[v] = true
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(1, 10, func(rep int, rng *xrand.RNG) (int, error) {
		if rep == 7 {
			return 0, boom
		}
		return rep, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunRejectsZeroReps(t *testing.T) {
	if _, err := Run(1, 0, func(int, *xrand.RNG) (int, error) { return 0, nil }); err == nil {
		t.Fatal("0 reps accepted")
	}
}

func TestRunExecutesAllReps(t *testing.T) {
	var count atomic.Int64
	_, err := Run(3, 100, func(rep int, rng *xrand.RNG) (struct{}, error) {
		count.Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("executed %d reps", count.Load())
	}
}
