package interact

import (
	"math/rand"
	"testing"
)

func TestSetAddRemove(t *testing.T) {
	g := New(4)
	if old, err := g.Set(0, 1, 2.5); err != nil || old != 0 {
		t.Fatalf("Set: old=%v err=%v", old, err)
	}
	if old, err := g.Set(1, 0, 4); err != nil || old != 2.5 {
		t.Fatalf("Set reverse: old=%v err=%v", old, err)
	}
	if w := g.Weight(0, 1); w != 4 {
		t.Fatalf("Weight = %v, want 4", w)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if old, now, err := g.Add(0, 1, 1); err != nil || old != 4 || now != 5 {
		t.Fatalf("Add: old=%v now=%v err=%v", old, now, err)
	}
	if old, err := g.Set(0, 1, 0); err != nil || old != 5 {
		t.Fatalf("Set 0: old=%v err=%v", old, err)
	}
	if g.NumEdges() != 0 || g.Weight(0, 1) != 0 {
		t.Fatalf("edge not removed: edges=%d w=%v", g.NumEdges(), g.Weight(0, 1))
	}
}

func TestRejectsBadEdges(t *testing.T) {
	g := New(3)
	if _, err := g.Set(0, 0, 1); err == nil {
		t.Fatal("self-edge accepted")
	}
	if _, err := g.Set(0, 3, 1); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := g.Set(0, 1, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, _, err := g.Add(0, 1, 0); err == nil {
		t.Fatal("zero increment accepted")
	}
}

// checkSymmetry verifies both-endpoint storage and sorted rows.
func checkSymmetry(t *testing.T, g *Graph) {
	t.Helper()
	count := 0
	for z := 0; z < g.NumZones(); z++ {
		nbr, wt := g.Row(z)
		for i, y := range nbr {
			if i > 0 && nbr[i-1] >= y {
				t.Fatalf("zone %d row not strictly ascending: %v", z, nbr)
			}
			if w := g.Weight(int(y), z); w != wt[i] {
				t.Fatalf("asymmetric edge (%d,%d): %v vs %v", z, y, wt[i], w)
			}
			if int32(z) < y {
				count++
			}
		}
	}
	if count != g.NumEdges() {
		t.Fatalf("edge count %d, rows hold %d", g.NumEdges(), count)
	}
}

func TestRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(12)
	for step := 0; step < 2000; step++ {
		a, b := rng.Intn(12), rng.Intn(12)
		if a == b {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			if _, err := g.Set(a, b, float64(rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, _, err := g.Add(a, b, rng.Float64()+0.1); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := g.Set(a, b, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkSymmetry(t, g)
}

func TestRemoveZoneSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(8)
		g := New(n)
		for e := 0; e < n*2; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.Set(a, b, 1+rng.Float64())
			}
		}
		z := rng.Intn(n)
		l := n - 1
		// Expected graph: rebuild with z dropped and l relabeled z.
		want := New(n - 1)
		relabel := func(x int) int {
			if x == l {
				return z
			}
			return x
		}
		for _, e := range g.Edges() {
			if e.A == z || e.B == z {
				continue
			}
			want.Set(relabel(e.A), relabel(e.B), e.W)
		}
		if err := g.RemoveZoneSwap(z); err != nil {
			t.Fatal(err)
		}
		checkSymmetry(t, g)
		if !g.Equal(want) {
			t.Fatalf("trial %d: swap-remove of %d/%d mismatch:\n got %+v\nwant %+v", trial, z, n, g.Edges(), want.Edges())
		}
	}
}

func TestCutWeight(t *testing.T) {
	g := New(4)
	g.Set(0, 1, 2)
	g.Set(1, 2, 3)
	g.Set(2, 3, 5)
	hosts := []int{0, 0, 1, 1}
	if cut := g.CutWeight(hosts); cut != 3 {
		t.Fatalf("cut = %v, want 3", cut)
	}
	if tw := g.TotalWeight(); tw != 10 {
		t.Fatalf("total = %v, want 10", tw)
	}
}

func TestScaleDecay(t *testing.T) {
	g := New(3)
	g.Set(0, 1, 8)
	g.Set(1, 2, 1)
	if err := g.Scale(0.5, 1); err != nil {
		t.Fatal(err)
	}
	if w := g.Weight(0, 1); w != 4 {
		t.Fatalf("scaled weight %v, want 4", w)
	}
	if g.Weight(1, 2) != 0 || g.NumEdges() != 1 {
		t.Fatalf("floor did not drop edge: w=%v edges=%d", g.Weight(1, 2), g.NumEdges())
	}
	checkSymmetry(t, g)
}

func TestCloneIndependent(t *testing.T) {
	g := New(3)
	g.Set(0, 1, 2)
	c := g.Clone()
	c.Set(0, 1, 9)
	c.Set(1, 2, 1)
	if g.Weight(0, 1) != 2 || g.NumEdges() != 1 {
		t.Fatal("clone aliases parent")
	}
	if !g.Clone().Equal(g) {
		t.Fatal("clone not equal")
	}
}
