package repair

import (
	"encoding/json"
	"fmt"
	"math"
)

// EventOp tags the canonical wire form of one journaled event. The two
// durable surfaces (dvecap.ClusterSession, internal/director) hand these to
// the one durability engine (Journal, journal.go), which appends them to the
// WAL before they are applied and, on recovery, streams the decoded events
// back through the surface's applyEvent onto the exact same mutators live
// traffic uses — one encoding, one engine, one code path, so replay cannot
// diverge from what the log captured (DESIGN.md §11). The encoding lives
// next to the planner because the planner's event surface defines what an
// event IS; the surfaces only add their addressing (string IDs for the
// session's Op*, dense indices and auto-issued IDs for the director's OpD*).
type EventOp string

// Client churn, delay refresh, bandwidth bookkeeping, topology events and
// the solver-epoch marker. The "d" prefix marks the director's surface
// (integer zones/nodes, auto-issued IDs); unprefixed ops belong to the
// cluster session surface (string IDs everywhere).
const (
	OpJoin         EventOp = "join"
	OpJoinBatch    EventOp = "join_batch"
	OpLeave        EventOp = "leave"
	OpLeaveBatch   EventOp = "leave_batch"
	OpMove         EventOp = "move"
	OpMoveBatch    EventOp = "move_batch"
	OpDelayRow     EventOp = "delay_row"
	OpServerDelays EventOp = "server_delays"
	OpSetBandwidth EventOp = "set_bw"
	OpSetZoneBW    EventOp = "set_zone_bw"
	OpAddServer    EventOp = "add_server"
	OpRemoveServer EventOp = "remove_server"
	OpDrainServer  EventOp = "drain"
	OpUncordon     EventOp = "uncordon"
	OpAddZone      EventOp = "add_zone"
	OpRetireZone   EventOp = "retire_zone"
	// Interaction-graph edge updates (DESIGN.md §15): set installs (or,
	// with weight 0, removes) the edge, add accumulates observed-crossing
	// weight onto it.
	OpSetAdjacency EventOp = "set_adj"
	OpAddAdjacency EventOp = "add_adj"
	// OpResolve records an explicit full re-solve request (Resolve, POST
	// /v1/reassign) — a real event replay must re-run.
	OpResolve EventOp = "resolve"
	// OpEpoch marks a drift-guard (or explicit) full re-solve: an advisory
	// write-behind record carrying the planner's FullSolves count after the
	// solve. Replay re-derives solves from the event stream itself; the
	// marker lets recovery cross-check that the rebuilt trajectory passed
	// through the same epochs.
	OpEpoch EventOp = "epoch"

	OpDJoin         EventOp = "djoin"
	OpDLeave        EventOp = "dleave"
	OpDMove         EventOp = "dmove"
	OpDDelays       EventOp = "ddelays"
	OpDAddServer    EventOp = "dadd_server"
	OpDRemoveServer EventOp = "dremove_server"
	OpDDrain        EventOp = "ddrain"
	OpDUncordon     EventOp = "duncordon"
	OpDAddZone      EventOp = "dadd_zone"
	OpDRetireZone   EventOp = "dretire_zone"
	OpDSetAdjacency EventOp = "dset_adj"
	OpDAddAdjacency EventOp = "dadd_adj"
)

// Event is the canonical journal record. Exactly the fields an op needs
// are populated; every field's JSON zero value round-trips to the Go zero
// value, so omitempty never loses information.
type Event struct {
	Op EventOp `json:"op"`

	// Client addressing: one ID or a batch.
	ID  string   `json:"id,omitempty"`
	IDs []string `json:"ids,omitempty"`

	// Zone addressing by ID (session surface) or index (director surface).
	// Zone2/ZoneIdx2 name the second endpoint of an adjacency-edge event.
	Zone     string   `json:"zone,omitempty"`
	Zone2    string   `json:"zone2,omitempty"`
	Zones    []string `json:"zones,omitempty"`
	ZoneIdx  int      `json:"zone_idx,omitempty"`
	ZoneIdx2 int      `json:"zone_idx2,omitempty"`
	ZoneIdxs []int    `json:"zone_idxs,omitempty"`

	// Server addressing.
	Server    string `json:"server,omitempty"`
	ServerIdx int    `json:"server_idx,omitempty"`
	Host      string `json:"host,omitempty"`

	// Payloads. Rows are dense (one entry per server, server order at the
	// event's LSN); RTTs/ClientRTTs are ID-keyed sparse forms.
	RT         float64            `json:"rt,omitempty"`
	RTs        []float64          `json:"rts,omitempty"`
	Row        []float64          `json:"row,omitempty"`
	Rows       [][]float64        `json:"rows,omitempty"`
	RTTs       map[string]float64 `json:"rtts,omitempty"`
	ClientRTTs map[string]float64 `json:"client_rtts,omitempty"`
	Capacity   float64            `json:"capacity,omitempty"`
	// Weight is the adjacency-edge payload: the absolute weight of a set
	// event (0 removes the edge) or the increment of an add event.
	Weight float64 `json:"weight,omitempty"`

	// Director extras: the serving node of a join, and whether the
	// director auto-issued the client ID (so replay re-advances the ID
	// sequence exactly as the live path did).
	Node int  `json:"node,omitempty"`
	Auto bool `json:"auto,omitempty"`

	// Spare marks an add-server event as a warm-spare registration: the
	// server arrives cordoned, holding nothing, until a scale-up admits
	// it. Absent on older journals, which decodes to false — a plain add —
	// so pre-autoscale logs replay unchanged.
	Spare bool `json:"spare,omitempty"`

	// FullSolves is OpEpoch's payload.
	FullSolves int `json:"full_solves,omitempty"`
}

// FiniteNonNeg reports whether v is a finite number >= 0 — the one range
// check for every measured quantity (RTTs, edge weights that may be zero)
// arriving at either surface: NaN and ±Inf would poison the evaluator's
// accumulators and cannot be journaled (JSON has no encoding for them).
func FiniteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// FinitePos is FiniteNonNeg for quantities that must be strictly positive
// (capacities, bandwidths, edge-weight increments).
func FinitePos(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Encode renders the event's canonical journal payload.
func (e *Event) Encode() ([]byte, error) {
	if e.Op == "" {
		return nil, fmt.Errorf("repair: encoding event with empty op")
	}
	return json.Marshal(e)
}

// DecodeEvent parses a journal payload back into an Event.
func DecodeEvent(payload []byte) (*Event, error) {
	var e Event
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("repair: decode event: %w", err)
	}
	if e.Op == "" {
		return nil, fmt.Errorf("repair: event with empty op")
	}
	return &e, nil
}
