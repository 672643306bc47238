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
// (Zone1 < Zone2 by dense index, edges sorted) with the zones' stable IDs.
type AdjacencyInfo struct {
	Zone1      int     `json:"zone1"`
	Zone2      int     `json:"zone2"`
	WeightMbps float64 `json:"weight_mbps"`
	Zone1ID    string  `json:"zone1_id"`
	Zone2ID    string  `json:"zone2_id"`
}

// Adjacency lists the interaction graph's edges in canonical order; empty
// when no edge has been installed.
func (d *Director) Adjacency() []AdjacencyInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := []AdjacencyInfo{}
	if g := d.planner().Problem().Adjacency; g != nil {
		for _, e := range g.Edges() {
			out = append(out, d.edgeInfo(e.A, e.B))
		}
	}
	return out
}

// SetAdjacency installs (or, with weightMbps == 0, removes) the
// interaction edge between two zones at an absolute weight, returning the
// edge's resulting state. With the traffic term armed
// (Config.TrafficWeight > 0) the edge immediately participates in repair
// decisions.
func (d *Director) SetAdjacency(zone1, zone2 Ref, weightMbps float64) (AdjacencyInfo, error) {
	return d.adjacency(repair.OpSetAdjacency, zone1, zone2, weightMbps)
}

// AddAdjacencyWeight accumulates deltaMbps > 0 onto the edge between two
// zones and returns the edge's resulting state — the feedback mouth for
// observed avatar crossings: each crossing between a pair of zones bumps
// their interaction weight.
func (d *Director) AddAdjacencyWeight(zone1, zone2 Ref, deltaMbps float64) (AdjacencyInfo, error) {
	return d.adjacency(repair.OpAddAdjacency, zone1, zone2, deltaMbps)
}

func (d *Director) adjacency(op repair.EventOp, zone1, zone2 Ref, w float64) (AdjacencyInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	e, err := d.adjacencyEvent(op, zone1, zone2, w)
	if err := d.commit(e, err); err != nil {
		return AdjacencyInfo{}, err
	}
	b := d.m.Binding()
	z1, _ := b.ZoneIndex(e.Zone)
	z2, _ := b.ZoneIndex(e.Zone2)
	return d.edgeInfo(min(z1, z2), max(z1, z2)), nil
}

// adjacencyEvent resolves an edge mutation's zones (404 via ErrUnknownZone);
// the machine admits the edge and its weight.
func (d *Director) adjacencyEvent(op repair.EventOp, zone1, zone2 Ref, w float64) (*repair.Event, error) {
	z1, err := d.zoneIndex(zone1)
	if err != nil {
		return nil, fmt.Errorf("director: %w", err)
	}
	z2, err := d.zoneIndex(zone2)
	if err != nil {
		return nil, fmt.Errorf("director: %w", err)
	}
	b := d.m.Binding()
	return &repair.Event{Op: op, Zone: b.ZoneID(z1), Zone2: b.ZoneID(z2), Weight: w}, nil
}

// edgeInfo reads the current state of the edge between zones a < b.
func (d *Director) edgeInfo(a, b int) AdjacencyInfo {
	info := AdjacencyInfo{Zone1: a, Zone2: b, Zone1ID: d.m.Binding().ZoneID(a), Zone2ID: d.m.Binding().ZoneID(b)}
	if g := d.planner().Problem().Adjacency; g != nil {
		info.WeightMbps = g.Weight(a, b)
	}
	return info
}
