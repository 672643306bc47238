package director

// Batch verbs: many clients, ONE event — one journal record, one fsync, one
// seeded repair pass over the union of touched zones (the machine interprets
// them exactly as it does the session's batch verbs). The population-
// dependent bandwidth model rides in the event like it does for the single
// verbs, through the same rule (repair.IDBinding.Reprice): every zone whose
// population changes is refreshed to its FINAL population before the batch
// applies, and joiners and movers are priced at their destination's.

import (
	"fmt"

	"dvecap/internal/repair"
)

// ClientJoin names one client of a JoinBatch: a caller-chosen ID (batches
// issue no automatic IDs), its topology node and the zone it enters.
type ClientJoin struct {
	ID   string
	Node int
	Zone Ref
}

// JoinBatch admits many clients in one event — the flash-crowd path.
func (d *Director) JoinBatch(joins []ClientJoin) ([]ClientInfo, error) {
	ids, nodes, zones := make([]string, len(joins)), make([]int, len(joins)), make([]Ref, len(joins))
	for x, j := range joins {
		ids[x], nodes[x], zones[x] = j.ID, j.Node, j.Zone
	}
	return d.batch(repair.OpJoinBatch, ids, nodes, zones)
}

// LeaveBatch removes many clients in one event.
func (d *Director) LeaveBatch(ids []string) error {
	_, err := d.batch(repair.OpLeaveBatch, ids, nil, nil)
	return err
}

// MoveBatch migrates many clients in one event: ids[x] moves to zones[x]
// (clients already there are allowed and unchanged).
func (d *Director) MoveBatch(ids []string, zones []Ref) ([]ClientInfo, error) {
	if len(zones) != len(ids) {
		return nil, fmt.Errorf("director: move batch has %d ids but %d zones", len(ids), len(zones))
	}
	return d.batch(repair.OpMoveBatch, ids, nil, zones)
}

// batch resolves, commits and answers one batch verb. The whole batch is
// admitted before anything is journaled — an unknown, repeated or (for a
// join) already registered ID, a bad node or zone means nothing happened.
// nodes is set for a join, zones for a join or a move.
func (d *Director) batch(op repair.EventOp, ids []string, nodes []int, zones []Ref) ([]ClientInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	b := d.m.Binding()
	e := &repair.Event{Op: op, IDs: ids, Nodes: nodes}
	var from, to []int
	for x, id := range ids {
		if nodes == nil { // leaving or moving: out of its current zone
			old, err := d.clientZone(id)
			if err != nil {
				return nil, err
			}
			from = append(from, old)
		} else if nodes[x] < 0 || nodes[x] >= d.cfg.Delays.N() {
			return nil, fmt.Errorf("director: node %d outside topology", nodes[x])
		} else {
			e.Rows = append(e.Rows, d.delayRow(nil, nodes[x]))
		}
		if zones != nil { // joining or moving: into zones[x]
			z, err := d.zoneIndex(zones[x])
			if err != nil {
				return nil, fmt.Errorf("director: batch: %v", err)
			}
			to, e.Zones = append(to, z), append(e.Zones, b.ZoneID(z))
		}
	}
	b.Reprice(e, d.bw.ClientRTMbps, from, to)
	if err := d.commit(e, nil); err != nil || zones == nil {
		return nil, err
	}
	out := make([]ClientInfo, len(ids))
	for x, id := range ids {
		j, _ := b.Index(id)
		out[x] = d.infoAt(j, id)
	}
	return out, nil
}
