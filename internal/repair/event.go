package repair

import (
	"encoding/json"
	"fmt"
	"math"

	"dvecap/internal/core"
)

// EventOp tags the canonical wire form of one journaled event — the ONE
// vocabulary of the assignment state machine (Machine, machine.go). Both
// front ends (dvecap.ClusterSession, internal/director) resolve a verb to a
// fully resolved Event — stable string IDs for clients, servers and zones,
// dense delay rows — and hand it to the machine: its journal appends it to the
// WAL before Machine.Apply interprets it, and recovery streams the decoded
// events through the same Apply, so replay cannot diverge from what the log
// captured (DESIGN.md §11). The encoding lives next to the planner because
// the planner's event surface defines what an event IS.
type EventOp string

// Client churn, delay refresh, bandwidth bookkeeping, topology events and
// the solver-epoch marker.
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
)

// ZoneRT is one entry of an event's bandwidth refresh list: every client
// currently in Zone is re-priced to RT Mbps.
type ZoneRT struct {
	Zone string  `json:"zone"`
	RT   float64 `json:"rt"`
}

// Event is the canonical journal record. Exactly the fields an op needs
// are populated; every field's JSON zero value round-trips to the Go zero
// value, so omitempty never loses information.
type Event struct {
	Op EventOp `json:"op"`

	// Client addressing: one ID or a batch.
	ID  string   `json:"id,omitempty"`
	IDs []string `json:"ids,omitempty"`

	// Zone addressing by ID. Zone2 names the second endpoint of an
	// adjacency-edge event.
	Zone  string   `json:"zone,omitempty"`
	Zone2 string   `json:"zone2,omitempty"`
	Zones []string `json:"zones,omitempty"`

	// Server addressing by ID.
	Server string `json:"server,omitempty"`
	Host   string `json:"host,omitempty"`

	// Payloads. Rows are dense (one entry per server, server order at the
	// event's LSN); RTTs/ClientRTTs are ID-keyed sparse forms. RT/RTs are the
	// bandwidth of the event's client(s) — required on a join and a batch
	// join, optional on a move (the mover is re-priced before it migrates).
	RT         float64            `json:"rt,omitempty"`
	RTs        []float64          `json:"rts,omitempty"`
	Row        core.FloatRow      `json:"row,omitempty"`
	Rows       core.FloatRows     `json:"rows,omitempty"`
	RTTs       map[string]float64 `json:"rtts,omitempty"`
	ClientRTTs map[string]float64 `json:"client_rtts,omitempty"`
	Capacity   float64            `json:"capacity,omitempty"`
	// Weight is the adjacency-edge payload: the absolute weight of a set
	// event (0 removes the edge) or the increment of an add event.
	Weight float64 `json:"weight,omitempty"`

	// Refresh lists per-zone bandwidth refreshes applied BEFORE the event's
	// own step — how a front end with a population-dependent bandwidth model
	// (the director) keeps a membership change one record and one fsync.
	// Machine.Check admits the step before the event is journaled, so an
	// event refused there never leaves a refresh behind.
	Refresh []ZoneRT `json:"refresh,omitempty"`

	// Director extras: the topology node a joining client or an added
	// server attaches at, and whether the client ID was auto-issued (so the
	// machine advances the ID sequence on the live path and on replay
	// alike). Absent from session journals.
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

// CheckEdge is the range rule for one interaction edge: two distinct zones
// and a weight finite > 0 — or 0, which removes the edge, on a set.
func CheckEdge(op EventOp, zone1, zone2 string, w float64) error {
	if zone1 == zone2 {
		return fmt.Errorf("self-adjacency on zone %q", zone1)
	}
	if !(FinitePos(w) || (op == OpSetAdjacency && w == 0)) {
		return fmt.Errorf("adjacency (%q,%q) weight %v, want finite > 0", zone1, zone2, w)
	}
	return nil
}

// CheckClientID is the one admission check on a caller-chosen client ID, for
// both front ends: non-empty, and not a dot segment — "." and ".." cannot be
// addressed as one URL path segment (HTTP routers clean them away), so they
// are refused at the door instead of admitted and then unreachable.
func CheckClientID(id string) error {
	if id == "" || id == "." || id == ".." {
		return fmt.Errorf("invalid client ID %q: want non-empty and not a dot segment", id)
	}
	return nil
}

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
