// Package topology provides the network substrate for the client assignment
// simulation: Internet-like graphs with per-link propagation delays, the
// generators the paper's evaluation relies on (Waxman, Barabási–Albert and a
// BRITE-style two-level hierarchy), an embedded US-backbone "real" topology,
// parallel all-pairs shortest-path delay computation, and the DelayMatrix
// post-processing the paper applies (scale so the maximum round-trip time is
// a fixed bound; discount inter-server delays by 50% to model
// well-provisioned server interconnects).
package topology

import (
	"fmt"
	"math"
)

// Point is a position on the generation plane (or, for embedded real
// topologies, a longitude/latitude pair).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Node is a vertex of a topology: a router or point of presence.
type Node struct {
	ID   int
	Pos  Point
	AS   int    // autonomous-system index for hierarchical topologies; 0 otherwise
	Name string // optional human-readable label (used by embedded real topologies)
}

// Edge is an undirected link with a one-way propagation delay.
type Edge struct {
	A, B  int
	Delay float64 // one-way propagation delay, in the graph's delay unit
}

// Graph is an undirected network topology. The zero value is an empty graph;
// use AddNode/AddEdge or one of the generators to populate it.
type Graph struct {
	Nodes []Node
	Edges []Edge

	adj [][]halfEdge // lazily built adjacency lists
}

type halfEdge struct {
	to int
	w  float64
}

// NewGraph returns an empty graph with capacity hints.
func NewGraph(nodeHint, edgeHint int) *Graph {
	return &Graph{
		Nodes: make([]Node, 0, nodeHint),
		Edges: make([]Edge, 0, edgeHint),
	}
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(pos Point, as int) int {
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{ID: id, Pos: pos, AS: as})
	g.adj = nil
	return id
}

// AddNamedNode appends a labelled node and returns its ID.
func (g *Graph) AddNamedNode(name string, pos Point, as int) int {
	id := g.AddNode(pos, as)
	g.Nodes[id].Name = name
	return id
}

// AddEdge appends an undirected edge with the given one-way delay.
// It panics on out-of-range endpoints, self-loops, or negative delay.
func (g *Graph) AddEdge(a, b int, delay float64) {
	if a < 0 || a >= len(g.Nodes) || b < 0 || b >= len(g.Nodes) {
		panic(fmt.Sprintf("topology: edge endpoint out of range (%d,%d) with %d nodes", a, b, len(g.Nodes)))
	}
	if a == b {
		panic("topology: self-loop")
	}
	if delay < 0 || math.IsNaN(delay) {
		panic("topology: negative or NaN edge delay")
	}
	g.Edges = append(g.Edges, Edge{A: a, B: b, Delay: delay})
	g.adj = nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Nodes) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.Edges) }

// HasEdge reports whether an edge between a and b exists (in either
// direction). It is O(degree) once adjacency is built.
func (g *Graph) HasEdge(a, b int) bool {
	g.buildAdj()
	if a < 0 || a >= len(g.adj) {
		return false
	}
	for _, h := range g.adj[a] {
		if h.to == b {
			return true
		}
	}
	return false
}

// Degree returns the number of incident edges of node v.
func (g *Graph) Degree(v int) int {
	g.buildAdj()
	return len(g.adj[v])
}

func (g *Graph) buildAdj() {
	if g.adj != nil {
		return
	}
	adj := make([][]halfEdge, len(g.Nodes))
	deg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	for i := range adj {
		adj[i] = make([]halfEdge, 0, deg[i])
	}
	for _, e := range g.Edges {
		adj[e.A] = append(adj[e.A], halfEdge{to: e.B, w: e.Delay})
		adj[e.B] = append(adj[e.B], halfEdge{to: e.A, w: e.Delay})
	}
	g.adj = adj
}

// Connected reports whether the graph is connected (true for the empty
// graph and singletons).
func (g *Graph) Connected() bool {
	n := len(g.Nodes)
	if n <= 1 {
		return true
	}
	g.buildAdj()
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !seen[h.to] {
				seen[h.to] = true
				count++
				stack = append(stack, h.to)
			}
		}
	}
	return count == n
}

// Validate checks structural invariants: endpoints in range, no self loops,
// no negative delays, no duplicate undirected edges. It returns a non-nil
// error describing the first violation found.
func (g *Graph) Validate() error {
	n := len(g.Nodes)
	seen := make(map[[2]int]bool, len(g.Edges))
	for i, e := range g.Edges {
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
			return fmt.Errorf("edge %d endpoints (%d,%d) out of range [0,%d)", i, e.A, e.B, n)
		}
		if e.A == e.B {
			return fmt.Errorf("edge %d is a self-loop at node %d", i, e.A)
		}
		if e.Delay < 0 || math.IsNaN(e.Delay) {
			return fmt.Errorf("edge %d has invalid delay %v", i, e.Delay)
		}
		key := [2]int{min(e.A, e.B), max(e.A, e.B)}
		if seen[key] {
			return fmt.Errorf("duplicate edge between %d and %d", e.A, e.B)
		}
		seen[key] = true
	}
	for i, nd := range g.Nodes {
		if nd.ID != i {
			return fmt.Errorf("node %d has mismatched ID %d", i, nd.ID)
		}
	}
	return nil
}

// ASCount returns the number of distinct AS values present.
func (g *Graph) ASCount() int {
	set := map[int]bool{}
	for _, n := range g.Nodes {
		set[n.AS] = true
	}
	return len(set)
}

// Stats summarises a graph for diagnostics.
type Stats struct {
	Nodes, Edges int
	MinDegree    int
	MaxDegree    int
	MeanDegree   float64
	Connected    bool
	ASes         int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	g.buildAdj()
	s := Stats{Nodes: g.N(), Edges: g.M(), Connected: g.Connected(), ASes: g.ASCount()}
	if g.N() == 0 {
		return s
	}
	s.MinDegree = math.MaxInt
	for v := range g.Nodes {
		d := len(g.adj[v])
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.MeanDegree = 2 * float64(g.M()) / float64(g.N())
	return s
}
