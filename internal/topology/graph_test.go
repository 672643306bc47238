package topology

import (
	"bytes"
	"math"
	"testing"
)

func line(delays ...float64) *Graph {
	g := NewGraph(len(delays)+1, len(delays))
	for i := 0; i <= len(delays); i++ {
		g.AddNode(Point{X: float64(i)}, 0)
	}
	for i, d := range delays {
		g.AddEdge(i, i+1, d)
	}
	return g
}

func TestAddNodeAssignsSequentialIDs(t *testing.T) {
	g := NewGraph(0, 0)
	for i := 0; i < 5; i++ {
		if id := g.AddNode(Point{}, 0); id != i {
			t.Fatalf("AddNode returned %d, want %d", id, i)
		}
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(g *Graph)
	}{
		{"out of range", func(g *Graph) { g.AddEdge(0, 9, 1) }},
		{"self loop", func(g *Graph) { g.AddEdge(1, 1, 1) }},
		{"negative delay", func(g *Graph) { g.AddEdge(0, 1, -1) }},
		{"nan delay", func(g *Graph) { g.AddEdge(0, 1, math.NaN()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph(2, 1)
			g.AddNode(Point{}, 0)
			g.AddNode(Point{}, 0)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f(g)
		})
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := line(1, 2, 3)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("expected undirected edge 0-1")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected edge 0-2")
	}
	if d := g.Degree(1); d != 2 {
		t.Fatalf("Degree(1) = %d, want 2", d)
	}
	if d := g.Degree(0); d != 1 {
		t.Fatalf("Degree(0) = %d, want 1", d)
	}
}

func TestConnected(t *testing.T) {
	g := line(1, 1)
	if !g.Connected() {
		t.Fatal("line graph should be connected")
	}
	g.AddNode(Point{}, 0) // isolated node
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
	empty := NewGraph(0, 0)
	if !empty.Connected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestValidateCatchesDuplicateEdges(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddNode(Point{}, 0)
	g.AddNode(Point{}, 0)
	g.AddEdge(0, 1, 1)
	// Duplicate in reverse orientation must also be caught.
	g.Edges = append(g.Edges, Edge{A: 1, B: 0, Delay: 2})
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed duplicate undirected edge")
	}
}

func TestValidateOK(t *testing.T) {
	if err := line(1, 2, 3).Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestASCount(t *testing.T) {
	g := NewGraph(4, 0)
	g.AddNode(Point{}, 0)
	g.AddNode(Point{}, 1)
	g.AddNode(Point{}, 0)
	g.AddNode(Point{}, 2)
	if g.ASCount() != 3 {
		t.Fatalf("ASCount = %d, want 3", g.ASCount())
	}
}

func TestStats(t *testing.T) {
	s := line(1, 1, 1).Stats()
	if s.Nodes != 4 || s.Edges != 3 || !s.Connected {
		t.Fatalf("unexpected stats %+v", s)
	}
	if s.MinDegree != 1 || s.MaxDegree != 2 {
		t.Fatalf("degree stats wrong: %+v", s)
	}
	if math.Abs(s.MeanDegree-1.5) > 1e-12 {
		t.Fatalf("mean degree %v, want 1.5", s.MeanDegree)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := USBackbone()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d", got.N(), got.M(), g.N(), g.M())
	}
	for i := range g.Nodes {
		if g.Nodes[i] != got.Nodes[i] {
			t.Fatalf("node %d changed: %+v vs %+v", i, g.Nodes[i], got.Nodes[i])
		}
	}
	for i := range g.Edges {
		if g.Edges[i] != got.Edges[i] {
			t.Fatalf("edge %d changed", i)
		}
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":      "not json",
		"unsorted ids": `{"nodes":[{"id":1,"x":0,"y":0,"as":0}],"edges":[]}`,
		"bad edge":     `{"nodes":[{"id":0,"x":0,"y":0,"as":0}],"edges":[{"a":0,"b":5,"delay":1}]}`,
		"self loop":    `{"nodes":[{"id":0,"x":0,"y":0,"as":0},{"id":1,"x":0,"y":0,"as":0}],"edges":[{"a":0,"b":0,"delay":1}]}`,
		"negative":     `{"nodes":[{"id":0,"x":0,"y":0,"as":0},{"id":1,"x":0,"y":0,"as":0}],"edges":[{"a":0,"b":1,"delay":-4}]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadJSON(bytes.NewReader([]byte(in))); err == nil {
				t.Fatalf("ReadJSON accepted %s", name)
			}
		})
	}
}

// TestStatsDegreesMatchEdgeList checks Stats' degree summary against
// degrees counted from the edge list of the US backbone.
func TestStatsDegreesMatchEdgeList(t *testing.T) {
	g := USBackbone()
	deg := make([]int, g.N())
	for _, e := range g.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	lo, hi, sum := deg[0], deg[0], 0
	for _, d := range deg {
		lo, hi, sum = min(lo, d), max(hi, d), sum+d
	}
	s := g.Stats()
	if s.MinDegree != lo || s.MaxDegree != hi {
		t.Fatalf("degree range %d..%d, edge list gives %d..%d", s.MinDegree, s.MaxDegree, lo, hi)
	}
	if want := float64(sum) / float64(g.N()); math.Abs(s.MeanDegree-want) > 1e-12 {
		t.Fatalf("mean degree %v, edge list gives %v", s.MeanDegree, want)
	}
	if s.Nodes != g.N() || s.Edges != len(g.Edges) || !s.Connected {
		t.Fatalf("unexpected stats %+v", s)
	}
}
