package topology

import (
	"math"
	"testing"
	"testing/quick"

	"dvecap/internal/xrand"
)

func TestWaxmanBasicProperties(t *testing.T) {
	g, err := Waxman(xrand.New(1), DefaultWaxman(100))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("Waxman graph not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) < 2 {
			t.Fatalf("node %d degree %d below MinDegree", v, g.Degree(v))
		}
	}
}

func TestWaxmanDeterministic(t *testing.T) {
	a, _ := Waxman(xrand.New(7), DefaultWaxman(60))
	b, _ := Waxman(xrand.New(7), DefaultWaxman(60))
	if a.M() != b.M() {
		t.Fatalf("edge counts differ: %d vs %d", a.M(), b.M())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestWaxmanSingleNode(t *testing.T) {
	g, err := Waxman(xrand.New(1), WaxmanParams{N: 1, Alpha: 0.5, Beta: 0.5, PlaneSize: 10, MinDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1 || g.M() != 0 {
		t.Fatalf("singleton graph wrong: N=%d M=%d", g.N(), g.M())
	}
}

func TestWaxmanRejectsBadParams(t *testing.T) {
	bad := []WaxmanParams{
		{N: 0, Alpha: 0.1, Beta: 0.1, PlaneSize: 1, MinDegree: 1},
		{N: 5, Alpha: 0, Beta: 0.1, PlaneSize: 1, MinDegree: 1},
		{N: 5, Alpha: 0.1, Beta: 1.5, PlaneSize: 1, MinDegree: 1},
		{N: 5, Alpha: 0.1, Beta: 0.1, PlaneSize: 0, MinDegree: 1},
		{N: 5, Alpha: 0.1, Beta: 0.1, PlaneSize: 1, MinDegree: 0},
	}
	for i, p := range bad {
		if _, err := Waxman(xrand.New(1), p); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
}

func TestWaxmanEdgeDelaysEqualDistance(t *testing.T) {
	g, _ := Waxman(xrand.New(3), DefaultWaxman(50))
	for _, e := range g.Edges {
		want := g.Nodes[e.A].Pos.Dist(g.Nodes[e.B].Pos)
		if math.Abs(e.Delay-want) > 1e-9 {
			t.Fatalf("edge (%d,%d) delay %v != distance %v", e.A, e.B, e.Delay, want)
		}
	}
}

func TestBarabasiBasicProperties(t *testing.T) {
	g, err := Barabasi(xrand.New(2), DefaultBarabasi(200))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("BA graph not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every non-core node attaches with exactly M new edges: M(N-M-1) plus
	// the complete core of M+1 nodes.
	m := 2
	wantEdges := (m+1)*m/2 + m*(200-m-1)
	if g.M() != wantEdges {
		t.Fatalf("M = %d, want %d", g.M(), wantEdges)
	}
}

func TestBarabasiHeavyTail(t *testing.T) {
	g, _ := Barabasi(xrand.New(5), DefaultBarabasi(400))
	// Preferential attachment must create hubs: the max degree should be
	// several times the mean (which is ~2M = 4).
	if d := g.Stats().MaxDegree; d < 12 {
		t.Fatalf("max degree %d too small for preferential attachment", d)
	}
}

func TestBarabasiRejectsBadParams(t *testing.T) {
	bad := []BarabasiParams{
		{N: 1, M: 1, PlaneSize: 1},
		{N: 5, M: 0, PlaneSize: 1},
		{N: 5, M: 5, PlaneSize: 1},
		{N: 5, M: 2, PlaneSize: 0},
	}
	for i, p := range bad {
		if _, err := Barabasi(xrand.New(1), p); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
}

func TestHierPaperConfiguration(t *testing.T) {
	g, err := Hier(xrand.New(11), DefaultHier())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 500 {
		t.Fatalf("N = %d, want 500", g.N())
	}
	if g.ASCount() != 20 {
		t.Fatalf("ASCount = %d, want 20", g.ASCount())
	}
	if !g.Connected() {
		t.Fatal("hierarchical graph not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// AS-major node ordering.
	for _, n := range g.Nodes {
		if n.AS != n.ID/25 {
			t.Fatalf("node %d in AS %d, want 25 contiguous nodes per AS", n.ID, n.AS)
		}
	}
}

func TestHierDeterministic(t *testing.T) {
	a, _ := Hier(xrand.New(4), DefaultHier())
	b, _ := Hier(xrand.New(4), DefaultHier())
	if a.M() != b.M() {
		t.Fatalf("edge counts differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestHierSingleAS(t *testing.T) {
	p := DefaultHier()
	p.ASCount = 1
	p.NodesPerAS = 10
	g, err := Hier(xrand.New(1), p)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || !g.Connected() {
		t.Fatalf("single-AS hier wrong: N=%d connected=%v", g.N(), g.Connected())
	}
}

func TestHierRejectsBadParams(t *testing.T) {
	bad := []HierParams{
		{},
		{ASCount: 0, NodesPerAS: 5, ASLinks: 1, PlaneSize: 1, ASPlaneFrac: 0.1, RouterMinDeg: 1, WaxmanAlpha: 0.1, WaxmanBeta: 0.1},
		{ASCount: 5, NodesPerAS: 0, ASLinks: 1, PlaneSize: 1, ASPlaneFrac: 0.1, RouterMinDeg: 1, WaxmanAlpha: 0.1, WaxmanBeta: 0.1},
		{ASCount: 5, NodesPerAS: 5, ASLinks: 9, PlaneSize: 1, ASPlaneFrac: 0.1, RouterMinDeg: 1, WaxmanAlpha: 0.1, WaxmanBeta: 0.1},
		{ASCount: 5, NodesPerAS: 5, ASLinks: 1, PlaneSize: 1, ASPlaneFrac: 2, RouterMinDeg: 1, WaxmanAlpha: 0.1, WaxmanBeta: 0.1},
	}
	for i, p := range bad {
		if _, err := Hier(xrand.New(1), p); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
}

func TestGeneratorsAlwaysConnectedProperty(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%60) + 2
		g, err := Waxman(xrand.New(seed), DefaultWaxman(n))
		if err != nil || !g.Connected() {
			return false
		}
		b, err := Barabasi(xrand.New(seed), DefaultBarabasi(max(n, 3)))
		return err == nil && b.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUSBackboneShape(t *testing.T) {
	g := USBackbone()
	if g.N() != 25 {
		t.Fatalf("N = %d, want 25", g.N())
	}
	if !g.Connected() {
		t.Fatal("US backbone not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.ASCount() != 4 {
		t.Fatalf("regions = %d, want 4", g.ASCount())
	}
	// Coast-to-coast one-way propagation should be tens of ms, well below
	// 100 ms, on every individual link.
	for _, e := range g.Edges {
		if e.Delay <= 0 || e.Delay > 40 {
			t.Fatalf("implausible link delay %v ms on %s–%s",
				e.Delay, g.Nodes[e.A].Name, g.Nodes[e.B].Name)
		}
	}
}

func TestWaxmanAlphaControlsDensity(t *testing.T) {
	sparseP := DefaultWaxman(120)
	sparseP.Alpha = 0.05
	denseP := DefaultWaxman(120)
	denseP.Alpha = 0.6
	sparse, err := Waxman(xrand.New(42), sparseP)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Waxman(xrand.New(42), denseP)
	if err != nil {
		t.Fatal(err)
	}
	if dense.M() <= sparse.M() {
		t.Fatalf("alpha 0.6 gave %d edges vs %d at alpha 0.05", dense.M(), sparse.M())
	}
}

func TestTransitStubHasHierarchicalPathStructure(t *testing.T) {
	ts, err := TransitStub(xrand.New(10), DefaultTransitStub())
	if err != nil {
		t.Fatal(err)
	}
	s := ts.PathStats()
	if !s.Connected {
		t.Fatal("transit-stub disconnected")
	}
	// Stub→transit→transit→stub structure forces multi-hop paths: the
	// average hop count must exceed a flat Waxman graph of similar size.
	flat, err := Waxman(xrand.New(10), DefaultWaxman(500))
	if err != nil {
		t.Fatal(err)
	}
	fs := flat.PathStats()
	if s.AvgHops <= fs.AvgHops {
		t.Fatalf("transit-stub avg hops %v not above flat Waxman %v", s.AvgHops, fs.AvgHops)
	}
}

func TestBarabasiClusteringBelowWaxman(t *testing.T) {
	// Preferential attachment with M=2 creates tree-like graphs with hubs;
	// Waxman's geometric edges close many triangles. The coefficient
	// ordering is a structural sanity check of both generators.
	ba, _ := Barabasi(xrand.New(3), DefaultBarabasi(300))
	wx, _ := Waxman(xrand.New(3), WaxmanParams{N: 300, Alpha: 0.4, Beta: 0.4, PlaneSize: 1000, MinDegree: 2})
	if ba.ClusteringCoefficient() >= wx.ClusteringCoefficient() {
		t.Fatalf("BA clustering %v not below dense Waxman %v",
			ba.ClusteringCoefficient(), wx.ClusteringCoefficient())
	}
}
