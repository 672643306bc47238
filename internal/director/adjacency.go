package director

// Zone-interaction adjacency on the live director (DESIGN.md §15): the
// weighted graph of avatar interaction between zones, fed by operators or
// by observed zone crossings, and priced by the repair objective's traffic
// term once Config.TrafficWeight > 0. Edits are journaled like every other
// mutation and land in O(degree) on the planner's incrementally maintained
// cut — no re-solve, no rescan.

import (
	"fmt"

	"dvecap/internal/repair"
)

// AdjacencyInfo is one interaction edge, reported in canonical order
// (Zone1 < Zone2, edges sorted).
type AdjacencyInfo struct {
	Zone1      int     `json:"zone1"`
	Zone2      int     `json:"zone2"`
	WeightMbps float64 `json:"weight_mbps"`
}

// Adjacency lists the interaction graph's edges in canonical order; empty
// when no edge has been installed.
func (d *Director) Adjacency() []AdjacencyInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	g := d.planner().Problem().Adjacency
	if g == nil {
		return []AdjacencyInfo{}
	}
	edges := g.Edges()
	out := make([]AdjacencyInfo, len(edges))
	for x, e := range edges {
		out[x] = AdjacencyInfo{Zone1: e.A, Zone2: e.B, WeightMbps: e.W}
	}
	return out
}

// SetAdjacency installs (or, with weightMbps == 0, removes) the
// interaction edge between two zones at an absolute weight, returning the
// edge's resulting state. With the traffic term armed
// (Config.TrafficWeight > 0) the edge immediately participates in repair
// decisions.
func (d *Director) SetAdjacency(zone1, zone2 int, weightMbps float64) (AdjacencyInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.adjacencyArgsLocked(zone1, zone2, weightMbps, true); err != nil {
		return AdjacencyInfo{}, err
	}
	if err := d.commit(&repair.Event{Op: repair.OpDSetAdjacency, ZoneIdx: zone1, ZoneIdx2: zone2, Weight: weightMbps}, func() error {
		return d.planner().SetAdjacency(zone1, zone2, weightMbps)
	}); err != nil {
		return AdjacencyInfo{}, err
	}
	return d.edgeInfoLocked(zone1, zone2), nil
}

// AddAdjacencyWeight accumulates deltaMbps > 0 onto the edge between two
// zones and returns the edge's resulting state — the feedback mouth for
// observed avatar crossings: each crossing between a pair of zones bumps
// their interaction weight.
func (d *Director) AddAdjacencyWeight(zone1, zone2 int, deltaMbps float64) (AdjacencyInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.adjacencyArgsLocked(zone1, zone2, deltaMbps, false); err != nil {
		return AdjacencyInfo{}, err
	}
	if err := d.commit(&repair.Event{Op: repair.OpDAddAdjacency, ZoneIdx: zone1, ZoneIdx2: zone2, Weight: deltaMbps}, func() error {
		return d.planner().AddAdjacency(zone1, zone2, deltaMbps)
	}); err != nil {
		return AdjacencyInfo{}, err
	}
	return d.edgeInfoLocked(zone1, zone2), nil
}

// edgeInfoLocked reads one edge's current state in canonical order.
func (d *Director) edgeInfoLocked(zone1, zone2 int) AdjacencyInfo {
	if zone1 > zone2 {
		zone1, zone2 = zone2, zone1
	}
	info := AdjacencyInfo{Zone1: zone1, Zone2: zone2}
	if g := d.planner().Problem().Adjacency; g != nil {
		info.WeightMbps = g.Weight(zone1, zone2)
	}
	return info
}

// adjacencyArgsLocked validates an edge mutation before anything is
// journaled: both zones must exist (404 via ErrUnknownZone), the edge must
// not be a self-loop, and the weight must be finite and positive (zero
// allowed only for set, which removes the edge).
func (d *Director) adjacencyArgsLocked(zone1, zone2 int, w float64, zeroOK bool) error {
	for _, z := range [2]int{zone1, zone2} {
		if z < 0 || z >= d.cfg.Zones {
			return fmt.Errorf("director: %w: zone %d outside [0,%d)", ErrUnknownZone, z, d.cfg.Zones)
		}
	}
	if zone1 == zone2 {
		return fmt.Errorf("director: adjacency self-edge (%d,%d)", zone1, zone2)
	}
	if !(repair.FinitePos(w) || (zeroOK && w == 0)) {
		return fmt.Errorf("director: adjacency weight %v, want finite > 0", w)
	}
	return nil
}
