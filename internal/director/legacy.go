package director

// The legacy reader: opens a data directory written before the director
// moved onto the one assignment machine (DESIGN.md §11). Those directories
// hold the director's own snapshot schema (directorSnapshot v1/v2: an
// index-addressed problem plus a client registry) and its own event
// vocabulary (the "d"-prefixed ops: dense indices, oracle-derived rows not
// journaled). Both are READ-ONLY here — a snapshot is converted to the
// machine's schema, a record is re-resolved through today's resolvers into
// the canonical event the current build would have journaled — and nothing
// writes them any more: the first checkpoint after recovery is in the
// current format. Delete this file one release after every deployed data
// directory has been checkpointed by a build that has it.

import (
	"encoding/json"
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/interact"
	"dvecap/internal/repair"
)

// The director's former journal vocabulary, and what each op is today.
const (
	legacyOpDJoin         repair.EventOp = "djoin"
	legacyOpDLeave        repair.EventOp = "dleave"
	legacyOpDMove         repair.EventOp = "dmove"
	legacyOpDDelays       repair.EventOp = "ddelays"
	legacyOpDAddServer    repair.EventOp = "dadd_server"
	legacyOpDRemoveServer repair.EventOp = "dremove_server"
	legacyOpDDrain        repair.EventOp = "ddrain"
	legacyOpDUncordon     repair.EventOp = "duncordon"
	legacyOpDAddZone      repair.EventOp = "dadd_zone"
	legacyOpDRetireZone   repair.EventOp = "dretire_zone"
	legacyOpDSetAdjacency repair.EventOp = "dset_adj"
	legacyOpDAddAdjacency repair.EventOp = "dadd_adj"
)

var legacyOps = map[repair.EventOp]repair.EventOp{
	legacyOpDJoin: repair.OpJoin, legacyOpDLeave: repair.OpLeave, legacyOpDMove: repair.OpMove,
	legacyOpDDelays: repair.OpDelayRow, legacyOpDAddServer: repair.OpAddServer,
	legacyOpDRemoveServer: repair.OpRemoveServer, legacyOpDDrain: repair.OpDrainServer,
	legacyOpDUncordon: repair.OpUncordon, legacyOpDAddZone: repair.OpAddZone,
	legacyOpDRetireZone: repair.OpRetireZone, legacyOpDSetAdjacency: repair.OpSetAdjacency,
	legacyOpDAddAdjacency: repair.OpAddAdjacency,
}

// legacyEvent is a journal record as the former vocabulary encoded it.
type legacyEvent struct {
	Op        repair.EventOp `json:"op"`
	ID        string         `json:"id"`
	ZoneIdx   int            `json:"zone_idx"`
	ZoneIdx2  int            `json:"zone_idx2"`
	ServerIdx int            `json:"server_idx"`
	Row       []float64      `json:"row"`
	Capacity  float64        `json:"capacity"`
	Weight    float64        `json:"weight"`
	Node      int            `json:"node"`
	Auto      bool           `json:"auto"`
	Spare     bool           `json:"spare"`
}

// decodeLegacy is the director's journal decoder: a current record decodes
// as is; a legacy record is re-resolved against the state replay has
// reached — the state the former build resolved it against — into today's
// event. A record that no longer resolves (the former build journaled some
// verbs before validating them) is one its apply rejected: it resolves to
// nothing.
func (d *Director) decodeLegacy(payload []byte) (*repair.Event, error) {
	e, err := repair.DecodeEvent(payload)
	if err != nil {
		return nil, err
	}
	op, legacy := legacyOps[e.Op]
	if !legacy {
		return e, nil
	}
	var le legacyEvent
	if err := json.Unmarshal(payload, &le); err != nil {
		return nil, fmt.Errorf("director: decode legacy event: %w", err)
	}
	switch le.Op {
	case legacyOpDJoin:
		e, err = d.joinEvent(le.ID, le.Node, Index(le.ZoneIdx), le.Auto)
	case legacyOpDLeave:
		e, err = d.leaveEvent(le.ID)
	case legacyOpDMove:
		e, err = d.moveEvent(le.ID, Index(le.ZoneIdx))
	case legacyOpDDelays:
		e = &repair.Event{Op: op, ID: le.ID, Row: le.Row}
	case legacyOpDAddServer:
		e, err = d.addServerEvent(le.Node, le.Capacity, le.Spare)
	case legacyOpDRemoveServer, legacyOpDDrain, legacyOpDUncordon:
		e, err = d.serverEvent(op, Index(le.ServerIdx))
	case legacyOpDAddZone:
		e = d.addZoneEvent()
	case legacyOpDRetireZone:
		e, err = d.zoneEvent(op, Index(le.ZoneIdx))
	case legacyOpDSetAdjacency, legacyOpDAddAdjacency:
		e, err = d.adjacencyEvent(op, Index(le.ZoneIdx), Index(le.ZoneIdx2), le.Weight)
	}
	if err != nil {
		return nil, nil
	}
	return e, nil
}

// legacySnapshot reads either snapshot layout: the embedded current schema,
// or — Problem set — the former directorSnapshot (v1; v2 added the provider
// state), whose remaining fields the two layouts do not share.
type legacySnapshot struct {
	repair.Snapshot
	Algorithm    string  `json:"algorithm"`
	DelayBoundMs float64 `json:"delay_bound_ms"`
	FrameRate    float64 `json:"frame_rate"`
	MessageBytes float64 `json:"message_bytes"`
	Seq          uint64  `json:"seq"`
	ServerNodes  []int   `json:"server_nodes"`
	Clients      []struct {
		ID   string `json:"id"`
		Node int    `json:"node"`
		Zone int    `json:"zone"`
	} `json:"clients"`
	Problem   *core.Problem   `json:"problem"`
	Adjacency *interact.State `json:"adjacency"`
}

// current returns the snapshot in the machine's schema, converting the
// former layout: servers and zones are named by their dense index at the
// snapshot ("s3", "z7" — the names a fresh director gives them), per-client
// rows move into the cluster spec, the interaction graph into its edge list,
// and the director's own fields into the typed extra.
func (ls *legacySnapshot) current() (*repair.Snapshot, error) {
	snap := &ls.Snapshot
	p := ls.Problem
	if p == nil {
		if snap.Director == nil {
			return nil, fmt.Errorf("not a director's: no director state")
		}
		return snap, nil
	}
	if len(ls.Clients) != p.NumClients() || len(ls.ServerNodes) != p.NumServers() || (ls.Provider == nil && len(p.CS) != p.NumClients()) {
		return nil, fmt.Errorf("lists %d clients and %d server nodes for a %d-client, %d-server problem",
			len(ls.Clients), len(ls.ServerNodes), p.NumClients(), p.NumServers())
	}
	zones, ids := names("z", p.NumZones), make([]string, len(ls.Clients))
	snap.Algo = ls.Algorithm
	snap.Director = &repair.DirectorState{
		FrameRate:    ls.FrameRate,
		MessageBytes: ls.MessageBytes,
		Seq:          ls.Seq,
		ServerNodes:  ls.ServerNodes,
		ClientNodes:  make([]int, len(ls.Clients)),
	}
	for j, cl := range ls.Clients {
		if cl.Zone < 0 || cl.Zone >= len(zones) || cl.Zone != p.ClientZones[j] {
			return nil, fmt.Errorf("client %q in zone %d, problem says %d of %d", cl.ID, cl.Zone, p.ClientZones[j], len(zones))
		}
		ids[j], snap.Director.ClientNodes[j] = cl.ID, cl.Node
	}
	if ls.Adjacency != nil {
		g, err := interact.FromState(ls.Adjacency)
		if err != nil || g.NumZones() != len(zones) {
			return nil, fmt.Errorf("adjacency does not fit %d zones (%v)", len(zones), err)
		}
		p.Adjacency = g
	}
	snap.Cluster = repair.NewClusterJSON(p, names("s", p.NumServers()), zones, ids, ls.Provider == nil)
	return snap, nil
}
