package repair

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"dvecap/internal/core"
)

// EventOp tags the canonical wire form of one journaled event — the ONE
// vocabulary of the assignment state machine (Machine, machine.go). Both
// front ends (dvecap.ClusterSession, internal/director) resolve a verb to a
// fully resolved Event — stable string IDs for clients, servers and zones,
// dense delay rows — and hand it to Machine.Commit, which appends it to the
// WAL before the machine's interpreter applies it; recovery streams the
// decoded events through the same interpreter, so replay cannot diverge from
// what the log captured (DESIGN.md §11); opFields is its closed schema. The
// encoding lives next to the planner because the planner's event surface
// defines what an event IS.
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
	// Machine.Commit admits the step before the event is journaled, so an
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

// fieldNames are the JSON keys of the Event fields after Op, in struct
// order: bit i of a field set stands for the field named fieldNames[i].
var fieldNames = strings.Fields("id ids zone zone2 zones server host rt rts row rows rtts client_rtts capacity weight refresh node auto spare full_solves")

// fields is the set of the named fields and the refresh list, which every
// op may carry as its prelude.
func fields(keys string) (f uint32) {
	for _, k := range strings.Fields(keys + " refresh") {
		f |= 1 << slices.Index(fieldNames, k)
	}
	return f
}

// opFields is the closed journal schema: every op there is, and the set of
// fields it reads.
var opFields = map[EventOp]uint32{
	OpJoin: fields("id zone rt row node auto"), OpJoinBatch: fields("ids zones rts rows"),
	OpLeave: fields("id"), OpLeaveBatch: fields("ids"),
	OpMove: fields("id zone rt"), OpMoveBatch: fields("ids zones"),
	OpDelayRow: fields("id row"), OpServerDelays: fields("server rtts"),
	OpSetBandwidth: fields("id rt"), OpSetZoneBW: fields("zone rt"),
	OpAddServer: fields("server capacity row client_rtts node spare"), OpRemoveServer: fields("server"),
	OpDrainServer: fields("server"), OpUncordon: fields("server"),
	OpAddZone: fields("zone host"), OpRetireZone: fields("zone"),
	OpSetAdjacency: fields("zone zone2 weight"), OpAddAdjacency: fields("zone zone2 weight"),
	OpResolve: fields(""), OpEpoch: fields("full_solves"),
}

// present is the set of e's non-zero fields — the ones its encoding
// carries — in struct order.
func (e *Event) present() (f uint32) {
	for i, set := range [...]bool{e.ID != "", len(e.IDs) > 0, e.Zone != "", e.Zone2 != "", len(e.Zones) > 0,
		e.Server != "", e.Host != "", e.RT != 0, len(e.RTs) > 0, len(e.Row) > 0, len(e.Rows) > 0,
		len(e.RTTs) > 0, len(e.ClientRTTs) > 0, e.Capacity != 0, e.Weight != 0, len(e.Refresh) > 0,
		e.Node != 0, e.Auto, e.Spare, e.FullSolves != 0} {
		if set {
			f |= 1 << i
		}
	}
	return f
}

// schema refuses an op the schema does not hold and a non-zero field
// outside the op's set, naming the first.
func (e *Event) schema() error {
	set, ok := opFields[e.Op]
	if !ok {
		return fmt.Errorf("unknown event op %q", e.Op)
	}
	if extra := e.present() &^ set; extra != 0 {
		return fmt.Errorf("%s event carries %q, which it does not read", e.Op, fieldNames[bits.TrailingZeros32(extra)])
	}
	return nil
}

// Encode renders the event's canonical journal payload.
func (e *Event) Encode() ([]byte, error) {
	if err := e.schema(); err != nil {
		return nil, fmt.Errorf("repair: encode event: %w", err)
	}
	return json.Marshal(e)
}

// EventDecoder decodes a replay's payloads through one json.Decoder reset
// onto each, refusing a key Event does not have, trailing data and what the
// schema refuses; after a refusal it starts afresh. Its zero value is ready.
type EventDecoder struct {
	src bytes.Reader
	dec *json.Decoder
}

// Decode parses one journal payload back into an Event.
func (d *EventDecoder) Decode(payload []byte) (*Event, error) {
	if d.dec == nil {
		d.dec = json.NewDecoder(&d.src)
		d.dec.DisallowUnknownFields()
	}
	d.src.Reset(payload)
	start := d.dec.InputOffset()
	var e Event
	err := d.dec.Decode(&e)
	if err == nil && d.dec.InputOffset()-start != int64(len(payload)) {
		err = fmt.Errorf("trailing data after the event")
	} else if err == nil {
		err = e.schema()
	}
	if err != nil {
		d.dec = nil
		return nil, fmt.Errorf("repair: decode event: %w", err)
	}
	return &e, nil
}

// fieldKeys are the members of the fields after Op as Encode writes them,
// fieldNames' order: `,"id":` and so on.
var fieldKeys = func() (keys []string) {
	for _, name := range fieldNames {
		keys = append(keys, `,"`+name+`":`)
	}
	return keys
}()

// readEvent reads, in one pass, a record as Encode writes it — every field
// of its op and its refresh list except the delay maps of server_delays and
// add_server — and reports whether it could, yielding what EventDecoder
// yields. Any other record (an unknown op, a delay map, a member out of
// order, a string to unescape, space, what the decoder refuses) it leaves
// to EventDecoder, the one authority on what a record means.
func readEvent(payload []byte) (*Event, bool) {
	r := core.WireReader{Rest: payload, OK: true}
	e := &Event{Op: EventOp(r.Key(`{"op":`).Str())}
	set, ok := opFields[e.Op]
	if !ok {
		return nil, false
	}
	strs := func(into *[]string) { each(&r, func() { *into = append(*into, r.Str()) }) }
	flag := func() bool {
		v := bytes.HasPrefix(r.Rest, []byte("true"))
		r.Key(strconv.FormatBool(v))
		return v
	}
	for i, key := range fieldKeys {
		if set&(1<<i) == 0 || !r.OK || !bytes.HasPrefix(r.Rest, []byte(key)) {
			continue
		}
		switch r.Key(key); fieldNames[i] {
		case "id":
			e.ID = r.Str()
		case "ids":
			strs(&e.IDs)
		case "zone":
			e.Zone = r.Str()
		case "zone2":
			e.Zone2 = r.Str()
		case "zones":
			strs(&e.Zones)
		case "server":
			e.Server = r.Str()
		case "host":
			e.Host = r.Str()
		case "rt":
			e.RT = r.Float()
		case "rts":
			e.RTs = r.Row()
		case "row":
			e.Row = r.Row()
		case "rows":
			e.Rows = r.Rows()
		case "capacity":
			e.Capacity = r.Float()
		case "weight":
			e.Weight = r.Float()
		case "refresh":
			each(&r, func() {
				zone := r.Key(`{"zone":`).Str()
				e.Refresh = append(e.Refresh, ZoneRT{zone, r.Key(`,"rt":`).Float()})
				r.Key("}")
			})
		case "node":
			e.Node = r.Int()
		case "auto":
			e.Auto = flag()
		case "spare":
			e.Spare = flag()
		case "full_solves":
			e.FullSolves = r.Int()
		default: // rtts, client_rtts
			r.OK = false
		}
	}
	if !r.Key("}").OK || len(r.Rest) > 0 {
		return nil, false
	}
	return e, true
}

// each reads a non-empty array, calling item at each element.
func each(r *core.WireReader, item func()) {
	for sep := "["; r.OK && sep != "]"; {
		r.Key(sep)
		item()
		if sep = ","; bytes.HasPrefix(r.Rest, []byte("]")) {
			sep = "]"
			r.Key(sep)
		}
	}
}
