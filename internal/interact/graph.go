// Package interact holds the weighted zone-adjacency interaction graph:
// which zones' populations interact, and how strongly. The assignment core
// consumes it as an optional traffic term — for each adjacency edge
// (z1, z2) with weight w, the solution pays w whenever the two zones are
// hosted on different servers — so co-locating interacting zones reduces
// cross-server handoff and broadcast traffic (DESIGN.md §15). The mobility
// workload produces it: observed avatar zone crossings accumulate into
// edge weights.
//
// The representation is sparse per-zone neighbor rows (parallel sorted
// slices), so iteration order is deterministic, edge updates are
// O(log degree + degree) and a zone's full row — the only thing a zone
// move needs — streams in O(degree). The graph is undirected: every edge
// is stored in both endpoint rows with the same weight, and self-edges are
// rejected (a zone always collocates with itself).
//
// A Graph is not safe for concurrent mutation; concurrent readers are fine.
package interact

import (
	"fmt"
	"sort"
)

// Graph is a weighted undirected zone-adjacency graph over zones
// 0..NumZones-1. The zero value is unusable; use New.
type Graph struct {
	// nbr[z] lists z's neighbor zones in ascending order; wt[z] holds the
	// parallel positive edge weights.
	nbr [][]int32
	wt  [][]float64
	// edges counts undirected edges.
	edges int
}

// New returns an empty graph over n zones.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{nbr: make([][]int32, n), wt: make([][]float64, n)}
}

// NumZones returns the zone count.
func (g *Graph) NumZones() int { return len(g.nbr) }

// Row returns zone z's neighbor row: ascending neighbor zone indices and
// the parallel edge weights. The slices are internal — read-only, valid
// until the next mutation.
func (g *Graph) Row(z int) (neighbors []int32, weights []float64) {
	return g.nbr[z], g.wt[z]
}

// Weight returns the weight of edge (a, b), 0 when absent.
func (g *Graph) Weight(a, b int) float64 {
	if a < 0 || a >= len(g.nbr) || b < 0 || b >= len(g.nbr) || a == b {
		return 0
	}
	if i, ok := g.find(a, int32(b)); ok {
		return g.wt[a][i]
	}
	return 0
}

// Set installs edge (a, b) with weight w, replacing any existing weight,
// and returns the previous weight (0 when the edge was absent). w must be
// finite and ≥ 0; w == 0 removes the edge. Indices must be valid zones and
// a != b.
func (g *Graph) Set(a, b int, w float64) (old float64, err error) {
	if err := g.checkEdge(a, b, w); err != nil {
		return 0, err
	}
	if w == 0 {
		old = g.removeHalf(a, int32(b))
		g.removeHalf(b, int32(a))
		if old != 0 {
			g.edges--
		}
		return old, nil
	}
	old = g.setHalf(a, int32(b), w)
	g.setHalf(b, int32(a), w)
	if old == 0 {
		g.edges++
	}
	return old, nil
}

// Add accumulates dw onto edge (a, b) — the observed-crossing update path —
// and returns the previous and new weights. dw must be finite and > 0.
func (g *Graph) Add(a, b int, dw float64) (old, now float64, err error) {
	if err := g.checkEdge(a, b, dw); err != nil {
		return 0, 0, err
	}
	if dw <= 0 {
		return 0, 0, fmt.Errorf("interact: edge (%d,%d) increment %v, want > 0", a, b, dw)
	}
	old = g.Weight(a, b)
	now = old + dw
	g.setHalf(a, int32(b), now)
	g.setHalf(b, int32(a), now)
	if old == 0 {
		g.edges++
	}
	return old, now, nil
}

// AddZone appends one zone with no edges and returns its index.
func (g *Graph) AddZone() int {
	g.nbr = append(g.nbr, nil)
	g.wt = append(g.wt, nil)
	return len(g.nbr) - 1
}

// RemoveZoneSwap removes zone z by swap-remove: z's edges are deleted, the
// last zone is relabeled z (matching the evaluator's zone swap-remove) and
// the graph shrinks by one. Callers that maintain derived quantities read
// Row(z) before calling.
func (g *Graph) RemoveZoneSwap(z int) error {
	n := len(g.nbr)
	if z < 0 || z >= n {
		return fmt.Errorf("interact: remove zone %d of %d", z, n)
	}
	// Drop z's edges from both endpoint rows.
	g.edges -= len(g.nbr[z])
	for _, y := range g.nbr[z] {
		g.removeHalf(int(y), int32(z))
	}
	g.nbr[z] = g.nbr[z][:0]
	g.wt[z] = g.wt[z][:0]
	l := n - 1
	if z != l {
		// Relabel zone l as z: move its row, rewrite the back-references.
		g.nbr[z], g.nbr[l] = g.nbr[l], g.nbr[z]
		g.wt[z], g.wt[l] = g.wt[l], g.wt[z]
		for i, y := range g.nbr[z] {
			w := g.wt[z][i]
			g.removeHalf(int(y), int32(l))
			g.setHalf(int(y), int32(z), w)
		}
	}
	g.nbr = g.nbr[:l]
	g.wt = g.wt[:l]
	return nil
}

// CutWeight sums the weights of edges whose endpoints hosts place on
// different servers — the cross-server traffic estimate. Canonical
// summation order (lower endpoint ascending, then row order), so two
// graphs with equal edge sets produce bit-identical cuts.
func (g *Graph) CutWeight(hosts []int) float64 {
	var cut float64
	for z := range g.nbr {
		hz := hosts[z]
		for i, y := range g.nbr[z] {
			if int32(z) < y && hz != hosts[y] {
				cut += g.wt[z][i]
			}
		}
	}
	return cut
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	if g == nil {
		return nil
	}
	c := &Graph{
		nbr:   make([][]int32, len(g.nbr)),
		wt:    make([][]float64, len(g.wt)),
		edges: g.edges,
	}
	for z := range g.nbr {
		if len(g.nbr[z]) > 0 {
			c.nbr[z] = append([]int32(nil), g.nbr[z]...)
			c.wt[z] = append([]float64(nil), g.wt[z]...)
		}
	}
	return c
}

// Edge is one undirected edge in canonical form (A < B).
type Edge struct {
	A int     `json:"a"`
	B int     `json:"b"`
	W float64 `json:"w"`
}

// Edges returns the edge list in canonical order: A < B, sorted by (A, B).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for z := range g.nbr {
		for i, y := range g.nbr[z] {
			if int32(z) < y {
				out = append(out, Edge{A: z, B: int(y), W: g.wt[z][i]})
			}
		}
	}
	return out
}

func (g *Graph) checkEdge(a, b int, w float64) error {
	n := len(g.nbr)
	if a < 0 || a >= n || b < 0 || b >= n {
		return fmt.Errorf("interact: edge (%d,%d) outside [0,%d)", a, b, n)
	}
	if a == b {
		return fmt.Errorf("interact: self-edge on zone %d", a)
	}
	if w < 0 || isBad(w) {
		return fmt.Errorf("interact: edge (%d,%d) weight %v, want finite ≥ 0", a, b, w)
	}
	return nil
}

// find locates neighbor y in zone z's row.
func (g *Graph) find(z int, y int32) (int, bool) {
	row := g.nbr[z]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= y })
	return i, i < len(row) && row[i] == y
}

// setHalf installs y with weight w in z's row, returning the prior weight.
func (g *Graph) setHalf(z int, y int32, w float64) (old float64) {
	i, ok := g.find(z, y)
	if ok {
		old = g.wt[z][i]
		g.wt[z][i] = w
		return old
	}
	g.nbr[z] = append(g.nbr[z], 0)
	copy(g.nbr[z][i+1:], g.nbr[z][i:])
	g.nbr[z][i] = y
	g.wt[z] = append(g.wt[z], 0)
	copy(g.wt[z][i+1:], g.wt[z][i:])
	g.wt[z][i] = w
	return 0
}

// removeHalf deletes y from z's row, returning the removed weight.
func (g *Graph) removeHalf(z int, y int32) (old float64) {
	i, ok := g.find(z, y)
	if !ok {
		return 0
	}
	old = g.wt[z][i]
	g.nbr[z] = append(g.nbr[z][:i], g.nbr[z][i+1:]...)
	g.wt[z] = append(g.wt[z][:i], g.wt[z][i+1:]...)
	return old
}

func isBad(w float64) bool {
	return w != w || w > 1e308 || w < -1e308
}
