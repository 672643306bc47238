package topology

import (
	"fmt"

	"dvecap/internal/xrand"
)

// HierParams configures the BRITE-style top-down hierarchical generator the
// paper's simulations use: an AS-level Barabási–Albert graph, and inside
// each AS a Waxman router-level graph placed in that AS's own region of the
// plane. Inter-AS edges are realised between the "border routers" (the
// lowest-indexed router of each AS, as BRITE does with its default edge
// assignment) of the connected ASes.
//
// The paper's configuration is 20 ASes × 25 routers = 500 nodes.
type HierParams struct {
	ASCount      int     // number of autonomous systems (>= 1)
	NodesPerAS   int     // routers per AS (>= 1)
	ASLinks      int     // Barabási–Albert M at the AS level (>= 1)
	WaxmanAlpha  float64 // intra-AS Waxman alpha
	WaxmanBeta   float64 // intra-AS Waxman beta
	PlaneSize    float64 // side of the global plane
	ASPlaneFrac  float64 // fraction of plane side occupied by one AS region, in (0,1]
	RouterMinDeg int     // min intra-AS degree
}

// DefaultHier returns the paper's topology configuration: 20 ASes in a
// Barabási–Albert mesh, 25 Waxman routers per AS, 500 nodes total.
func DefaultHier() HierParams {
	return HierParams{
		ASCount:      20,
		NodesPerAS:   25,
		ASLinks:      2,
		WaxmanAlpha:  0.15,
		WaxmanBeta:   0.2,
		PlaneSize:    1000,
		ASPlaneFrac:  0.12,
		RouterMinDeg: 2,
	}
}

func (p HierParams) validate() error {
	switch {
	case p.ASCount < 1:
		return fmt.Errorf("topology: Hier ASCount = %d, want >= 1", p.ASCount)
	case p.NodesPerAS < 1:
		return fmt.Errorf("topology: Hier NodesPerAS = %d, want >= 1", p.NodesPerAS)
	case p.ASCount >= 2 && (p.ASLinks < 1 || p.ASLinks >= p.ASCount):
		return fmt.Errorf("topology: Hier ASLinks = %d, want in [1,%d)", p.ASLinks, p.ASCount)
	case p.PlaneSize <= 0:
		return fmt.Errorf("topology: Hier PlaneSize = %v, want > 0", p.PlaneSize)
	case p.ASPlaneFrac <= 0 || p.ASPlaneFrac > 1:
		return fmt.Errorf("topology: Hier ASPlaneFrac = %v, want (0,1]", p.ASPlaneFrac)
	case p.RouterMinDeg < 1:
		return fmt.Errorf("topology: Hier RouterMinDeg = %d, want >= 1", p.RouterMinDeg)
	}
	return nil
}

// Hier generates the two-level topology. Node ordering is AS-major: the
// routers of AS a occupy IDs [a*NodesPerAS, (a+1)*NodesPerAS). Each node's
// AS field is set accordingly.
func Hier(rng *xrand.RNG, p HierParams) (*Graph, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	// AS-level skeleton: positions are AS region centres.
	var asGraph *Graph
	var err error
	if p.ASCount == 1 {
		asGraph = NewGraph(1, 0)
		asGraph.AddNode(Point{X: p.PlaneSize / 2, Y: p.PlaneSize / 2}, 0)
	} else {
		asGraph, err = Barabasi(rng.Split(), BarabasiParams{N: p.ASCount, M: p.ASLinks, PlaneSize: p.PlaneSize})
		if err != nil {
			return nil, err
		}
	}

	g := NewGraph(p.ASCount*p.NodesPerAS, p.ASCount*p.NodesPerAS*3)
	region := p.PlaneSize * p.ASPlaneFrac
	for a := 0; a < p.ASCount; a++ {
		sub, err := Waxman(rng.Split(), WaxmanParams{
			N:         p.NodesPerAS,
			Alpha:     p.WaxmanAlpha,
			Beta:      p.WaxmanBeta,
			PlaneSize: region,
			MinDegree: minInt(p.RouterMinDeg, p.NodesPerAS-1, 1),
		})
		if err != nil {
			return nil, err
		}
		centre := asGraph.Nodes[a].Pos
		offset := Point{X: centre.X - region/2, Y: centre.Y - region/2}
		base := g.N()
		for _, n := range sub.Nodes {
			g.AddNode(Point{X: offset.X + n.Pos.X, Y: offset.Y + n.Pos.Y}, a)
		}
		for _, e := range sub.Edges {
			// Recompute delay from global positions (identical to the local
			// distance, but keeps the invariant delay == distance explicit).
			d := g.Nodes[base+e.A].Pos.Dist(g.Nodes[base+e.B].Pos)
			g.AddEdge(base+e.A, base+e.B, d)
		}
	}
	// Realise each AS-level edge between the border routers (router 0) of
	// the two ASes; delay is the inter-region Euclidean distance.
	for _, e := range asGraph.Edges {
		u := e.A * p.NodesPerAS
		v := e.B * p.NodesPerAS
		g.AddEdge(u, v, g.Nodes[u].Pos.Dist(g.Nodes[v].Pos))
	}
	if !g.Connected() {
		// Cannot happen with connected levels, but guard the invariant: the
		// delay matrix assumes finite distances everywhere.
		connectComponents(g)
	}
	return g, nil
}

// minInt returns the smallest argument, with a floor of the last value.
func minInt(v, hi, floor int) int {
	if v > hi {
		v = hi
	}
	if v < floor {
		v = floor
	}
	return v
}
