package xrand

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependentOfParentConsumption(t *testing.T) {
	a, b := New(7), New(7)
	// Consume different amounts from each parent before splitting.
	for i := 0; i < 10; i++ {
		a.Float64()
	}
	ca, cb := a.Split(), b.Split()
	for i := 0; i < 100; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatalf("split children diverged at draw %d", i)
		}
	}
}

func TestSplitNMatchesOrder(t *testing.T) {
	a := New(9)
	c3 := a.SplitN(3)
	b := New(9)
	b.Split() // 1
	b.Split() // 2
	c3b := b.Split()
	for i := 0; i < 50; i++ {
		if c3.Float64() != c3b.Float64() {
			t.Fatalf("SplitN(3) != third Split at draw %d", i)
		}
	}
}

func TestSplitChildrenDistinct(t *testing.T) {
	a := New(11)
	c1, c2 := a.Split(), a.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams overlapped %d/100 draws", same)
	}
}

func TestUniformBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(2.5, 7.5)
		if v < 2.5 || v >= 7.5 {
			t.Fatalf("Uniform out of bounds: %v", v)
		}
	}
}

func TestIntRangeInclusive(t *testing.T) {
	r := New(4)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.IntRange(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 6; v++ {
		if !seen[v] {
			t.Errorf("IntRange never produced %d", v)
		}
	}
}

func TestIntRangeSingleton(t *testing.T) {
	r := New(5)
	if v := r.IntRange(9, 9); v != 9 {
		t.Fatalf("IntRange(9,9) = %d", v)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(6)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) empirical rate %v", p)
	}
}

func TestExpMean(t *testing.T) {
	r := New(8)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(4.0)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.25) > 0.01 {
		t.Fatalf("Exp(4) empirical mean %v, want 0.25", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestSimplexSumAndFloor(t *testing.T) {
	r := New(13)
	for trial := 0; trial < 200; trial++ {
		n := r.IntRange(1, 30)
		total := r.Uniform(10, 1000)
		minimum := total / float64(n) * r.Uniform(0, 0.9)
		parts := r.Simplex(n, total, minimum)
		if len(parts) != n {
			t.Fatalf("got %d parts want %d", len(parts), n)
		}
		var sum float64
		for _, p := range parts {
			if p < minimum-1e-9 {
				t.Fatalf("part %v below floor %v", p, minimum)
			}
			sum += p
		}
		if math.Abs(sum-total) > 1e-6*total {
			t.Fatalf("parts sum %v, want %v", sum, total)
		}
	}
}

func TestSimplexPanicsWhenInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Simplex with min*n > total did not panic")
		}
	}()
	New(1).Simplex(10, 5, 1)
}

func TestSampleWithoutProperties(t *testing.T) {
	f := func(seed uint64, rawN, rawK uint16) bool {
		n := int(rawN%200) + 1
		k := int(rawK) % (n + 1)
		got := New(seed).SampleWithout(n, k)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutCoversAll(t *testing.T) {
	got := New(2).SampleWithout(5, 5)
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("full sample missed values: %v", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN % 64)
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(21)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm(5, 2)
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean-5) > 0.05 || math.Abs(std-2) > 0.05 {
		t.Fatalf("Norm(5,2): mean %v std %v", mean, std)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(99)
	// Consume values and derive children so the captured state is mid-stream.
	for i := 0; i < 57; i++ {
		r.Float64()
	}
	r.Split().IntN(10)
	r.Split()
	st, err := r.State()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if q.Seed() != r.Seed() {
		t.Fatalf("restored seed %d, want %d", q.Seed(), r.Seed())
	}
	for i := 0; i < 500; i++ {
		if a, b := r.Float64(), q.Float64(); a != b {
			t.Fatalf("value stream diverges at %d: %v vs %v", i, a, b)
		}
	}
	// The split derivation sequence must continue identically too.
	ca, cb := r.Split(), q.Split()
	for i := 0; i < 100; i++ {
		if a, b := ca.IntN(1<<20), cb.IntN(1<<20); a != b {
			t.Fatalf("child stream diverges at %d: %v vs %v", i, a, b)
		}
	}
}

func TestStateRoundTripJSON(t *testing.T) {
	r := New(7)
	r.Float64()
	st, err := r.State()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	q, err := Restore(back)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := r.Float64(), q.Float64(); a != b {
			t.Fatalf("value stream diverges after JSON round-trip at %d", i)
		}
	}
}
