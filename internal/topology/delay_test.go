package topology

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dvecap/internal/xrand"
)

func TestShortestFromLineGraph(t *testing.T) {
	g := line(1, 2, 3)
	d := g.ShortestFrom(0)
	want := []float64{0, 1, 3, 6}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("d[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestShortestPrefersCheaperRoute(t *testing.T) {
	// Triangle where the direct edge is more expensive than the detour.
	g := NewGraph(3, 3)
	for i := 0; i < 3; i++ {
		g.AddNode(Point{}, 0)
	}
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 3)
	g.AddEdge(2, 1, 3)
	if d := g.ShortestFrom(0); d[1] != 6 {
		t.Fatalf("d[1] = %v, want 6 via detour", d[1])
	}
}

func TestShortestUnreachableIsInf(t *testing.T) {
	g := NewGraph(2, 0)
	g.AddNode(Point{}, 0)
	g.AddNode(Point{}, 0)
	if d := g.ShortestFrom(0); !math.IsInf(d[1], 1) {
		t.Fatalf("unreachable distance = %v, want +Inf", d[1])
	}
}

func TestAllPairsMatchesSingleSource(t *testing.T) {
	g, _ := Waxman(xrand.New(9), DefaultWaxman(80))
	ap := g.AllPairsShortest()
	for _, src := range []int{0, 17, 79} {
		single := g.ShortestFrom(src)
		for v := range single {
			if math.Abs(ap[src][v]-single[v]) > 1e-9 {
				t.Fatalf("APSP[%d][%d] = %v, single-source %v", src, v, ap[src][v], single[v])
			}
		}
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	g, _ := Waxman(xrand.New(10), DefaultWaxman(60))
	ap := g.AllPairsShortest()
	for i := range ap {
		for j := range ap {
			if math.Abs(ap[i][j]-ap[j][i]) > 1e-9 {
				t.Fatalf("APSP asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDelayMatrixScalesToMaxRTT(t *testing.T) {
	g, _ := Hier(xrand.New(3), DefaultHier())
	m, err := NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var maxD float64
	for _, row := range m.rtt {
		for _, d := range row {
			maxD = math.Max(maxD, d)
		}
	}
	if math.Abs(maxD-500) > 1e-6 {
		t.Fatalf("max RTT = %v, want 500", maxD)
	}
	if err := m.CheckSymmetric(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestDelayMatrixServerDiscount(t *testing.T) {
	g := line(10, 10)
	m, err := NewDelayMatrix(g, 400, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 to node 2 is the diameter: RTT = 400 after scaling.
	if got := m.RTT(0, 2); math.Abs(got-400) > 1e-9 {
		t.Fatalf("RTT(0,2) = %v, want 400", got)
	}
	if got := m.ServerRTT(0, 2); math.Abs(got-200) > 1e-9 {
		t.Fatalf("ServerRTT(0,2) = %v, want 200", got)
	}
	if m.ServerRTT(1, 1) != 0 {
		t.Fatal("ServerRTT of a node to itself must be 0")
	}
}

func TestDelayMatrixRejectsDisconnected(t *testing.T) {
	g := NewGraph(2, 0)
	g.AddNode(Point{}, 0)
	g.AddNode(Point{}, 0)
	if _, err := NewDelayMatrix(g, 500, 0.5); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestDelayMatrixRejectsBadParams(t *testing.T) {
	g := line(1)
	if _, err := NewDelayMatrix(g, 0, 0.5); err == nil {
		t.Fatal("maxRTT=0 accepted")
	}
	if _, err := NewDelayMatrix(g, 500, 0); err == nil {
		t.Fatal("serverFactor=0 accepted")
	}
	if _, err := NewDelayMatrix(g, 500, 1.5); err == nil {
		t.Fatal("serverFactor=1.5 accepted")
	}
}

func TestDelayMatrixCloneIsDeep(t *testing.T) {
	g := line(5, 5)
	m, _ := NewDelayMatrix(g, 100, 0.5)
	c := m.Clone()
	c.rtt[0][1] = 99
	if m.RTT(0, 1) == 99 {
		t.Fatal("Clone aliases parent storage")
	}
}

func TestNewDelayMatrixFromRTTValidates(t *testing.T) {
	if _, err := NewDelayMatrixFromRTT([][]float64{{0, 1}, {1}}, 0.5); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := NewDelayMatrixFromRTT([][]float64{{1}}, 0.5); err == nil {
		t.Fatal("non-zero diagonal accepted")
	}
	if _, err := NewDelayMatrixFromRTT([][]float64{{0, -1}, {-1, 0}}, 0.5); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestDelayMatrixTriangleInequalityProperty(t *testing.T) {
	// Shortest-path metrics always satisfy the triangle inequality; the
	// delay matrix must preserve it under scaling.
	g, _ := Waxman(xrand.New(14), DefaultWaxman(40))
	m, err := NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c uint8) bool {
		i, j, k := int(a)%40, int(b)%40, int(c)%40
		return m.RTT(i, k) <= m.RTT(i, j)+m.RTT(j, k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// CheckSymmetric verifies symmetry and a zero diagonal within tol.
func (m *DelayMatrix) CheckSymmetric(tol float64) error {
	n := len(m.rtt)
	for i := 0; i < n; i++ {
		if m.rtt[i][i] != 0 {
			return fmt.Errorf("diagonal [%d] = %v", i, m.rtt[i][i])
		}
		for j := i + 1; j < n; j++ {
			if math.Abs(m.rtt[i][j]-m.rtt[j][i]) > tol {
				return fmt.Errorf("asymmetric at (%d,%d): %v vs %v", i, j, m.rtt[i][j], m.rtt[j][i])
			}
		}
	}
	return nil
}

// TestDelayMatrixN checks that N covers every node of the graph, of an
// explicit RTT matrix and of a clone.
func TestDelayMatrixN(t *testing.T) {
	m, err := NewDelayMatrix(line(1, 2, 3, 4), 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 5 || m.Clone().N() != 5 {
		t.Fatalf("N = %d, clone %d, want 5", m.N(), m.Clone().N())
	}
	e, err := NewDelayMatrixFromRTT([][]float64{{0, 10, 20}, {10, 0, 15}, {20, 15, 0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != 3 {
		t.Fatalf("N = %d, want 3", e.N())
	}
}
