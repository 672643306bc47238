package repair

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/interact"
	"dvecap/internal/wal"
	"dvecap/telemetry"
)

// Machine is the one journaled assignment state machine (DESIGN.md §11): the
// single owner of the client→server assignment, under both front ends. It
// owns the ID binding over the planner, the journal (journal.go), the
// interpreter (Apply — the only place an EventOp turns into a state change,
// live and on replay alike), the snapshot body and the recover path. A front
// end owns resolving a verb to an Event (ClusterSession: specs → zone,
// bandwidth, row; the director: topology node → measured row, population →
// bandwidth), its locks and its traces.
//
// The live path is Append(e) → Apply(e) → Applied(); replay is Apply(e). The
// steps are separate so the director can hold its state lock across Apply
// alone. Not safe for concurrent use.
type Machine struct {
	b        *IDBinding
	algo     string
	overflow int

	// dir is the director's typed extra, nil under a session; the
	// interpreter maintains its Seq and ServerNodes, and clientNode — the
	// per-client half, keyed by ID.
	dir        *DirectorState
	clientNode map[string]int

	// The journal (journal.go); cfg.Dir is empty when not durable.
	cfg JournalConfig
	w   *wal.Writer
	// base is the LSN the loaded snapshot covers; Recover starts after it.
	base uint64
	// sinceSnap counts applied events since the last checkpoint;
	// lastFullSolves detects planner epochs (full re-solves) so they get
	// advisory markers live and a divergence check on replay.
	sinceSnap      int
	lastFullSolves int
	// replaying suspends journaling while Recover re-applies the log
	// through the live mutators.
	replaying bool
	closed    bool
	// hook is the fault tests' crash-injection point. It is consulted through
	// the crash method, so tests can install it after the surface is open.
	hook func(point string) error
	// snapLoad is what loading and restoring the snapshot a recovering
	// machine starts from cost; Recover reports it.
	snapLoad time.Duration

	snapDur   *telemetry.Histogram
	snapBytes *telemetry.Counter
	snaps     *telemetry.Counter
}

// DirectorState is the typed extra the director persists beside the
// machine's own state: its bandwidth model (recovery refuses a caller whose
// config disagrees), the auto-ID sequence, and the topology node behind
// every server (dense order) and client (the snapshot's client order).
type DirectorState struct {
	FrameRate    float64 `json:"frame_rate"`
	MessageBytes float64 `json:"message_bytes"`
	Seq          uint64  `json:"seq"`
	ServerNodes  []int   `json:"server_nodes"`
	ClientNodes  []int   `json:"client_nodes"`
}

// NewMachine wraps a binding whose topology is named. algo and overflow are
// recorded in snapshots as the front end spells them; dir, when set, makes
// this a director-side machine.
func NewMachine(b *IDBinding, algo string, overflow int, dir *DirectorState) (*Machine, error) {
	m := &Machine{b: b, algo: algo, overflow: overflow}
	if dir == nil {
		return m, nil
	}
	ids := b.DenseIDs()
	if len(dir.ServerNodes) != b.pl.NumServers() || len(dir.ClientNodes) != len(ids) {
		return nil, fmt.Errorf("repair: %d server and %d client nodes for %d servers and %d clients",
			len(dir.ServerNodes), len(dir.ClientNodes), b.pl.NumServers(), len(ids))
	}
	own := *dir
	own.ServerNodes, own.ClientNodes = append([]int(nil), dir.ServerNodes...), nil
	m.dir = &own
	m.clientNode = make(map[string]int, len(ids))
	for j, id := range ids {
		m.clientNode[id] = dir.ClientNodes[j]
	}
	return m, nil
}

// Names returns prefix+"0" … prefix+"<n-1>": generated server, zone or
// client IDs.
func Names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// NewIndexedMachine wraps a planner in a non-durable machine named after its
// dense indices — server i is "s<i>", zone z "z<z>", client j "c<j>": the
// machine of an in-process driver that addresses a generated world by index.
func NewIndexedMachine(pl *Planner, algo string) (*Machine, error) {
	b, err := RestoreIDBinding(pl, Names("c", pl.NumClients()), Names("s", pl.NumServers()), Names("z", pl.NumZones()))
	if err != nil {
		return nil, err
	}
	return NewMachine(b, algo, 0, nil)
}

// Binding returns the ID binding the machine mutates — the read side.
func (m *Machine) Binding() *IDBinding { return m.b }

// Algo returns the algorithm name as the front end spelled it.
func (m *Machine) Algo() string { return m.algo }

// Seq returns the auto-ID sequence: how many auto-issued joins were applied.
func (m *Machine) Seq() uint64 { return m.dir.Seq }

// ServerNodes returns the topology node behind each server, in dense order —
// the machine's own slice, read-only for callers.
func (m *Machine) ServerNodes() []int { return m.dir.ServerNodes }

// ClientNode returns the topology node the client joined at.
func (m *Machine) ClientNode(id string) int { return m.clientNode[id] }

// errUnknownOp marks the one Apply error replay must not swallow.
var errUnknownOp = errors.New("unknown journal op")

// Apply interprets one event against the binding: the refresh list first,
// then the event's own step through the binding's and planner's mutators (a
// move re-prices the mover, then migrates it). An error means the step was
// rejected and changed nothing.
func (m *Machine) Apply(e *Event) error {
	b, pl := m.b, m.b.pl
	if e.Auto && m.dir != nil {
		// The ID was materialized from Seq+1 before journaling; a rejected
		// auto-join has consumed its number all the same.
		m.dir.Seq++
	}
	for _, r := range e.Refresh {
		z, err := b.ZoneIndex(r.Zone)
		if err != nil {
			return err
		}
		if err := pl.RefreshZoneRT(z, r.RT); err != nil {
			return err
		}
	}
	switch e.Op {
	case OpJoin:
		z, err := b.ZoneIndex(e.Zone)
		if err != nil {
			return err
		}
		if err := b.Join(e.ID, z, e.RT, e.Row); err != nil {
			return err
		}
		if m.dir != nil {
			m.clientNode[e.ID] = e.Node
		}
	case OpJoinBatch:
		zs, err := b.zones.indices(e.Zones)
		if err != nil {
			return err
		}
		if err := b.JoinBatch(e.IDs, zs, e.RTs, e.Rows); err != nil {
			return err
		}
	case OpLeave:
		if err := b.Leave(e.ID); err != nil {
			return err
		}
		delete(m.clientNode, e.ID)
	case OpLeaveBatch:
		if err := b.LeaveBatch(e.IDs); err != nil {
			return err
		}
		for _, id := range e.IDs {
			delete(m.clientNode, id)
		}
	case OpMove:
		z, err := b.ZoneIndex(e.Zone)
		if err != nil {
			return err
		}
		if e.RT != 0 {
			if err := b.SetRT(e.ID, e.RT); err != nil {
				return err
			}
		}
		return b.Move(e.ID, z)
	case OpMoveBatch:
		zs, err := b.zones.indices(e.Zones)
		if err != nil {
			return err
		}
		return b.MoveBatch(e.IDs, zs)
	case OpDelayRow:
		return b.UpdateDelays(e.ID, e.Row)
	case OpServerDelays:
		return b.UpdateServerDelays(e.Server, e.RTTs)
	case OpSetBandwidth:
		return b.SetRT(e.ID, e.RT)
	case OpSetZoneBW:
		z, err := b.ZoneIndex(e.Zone)
		if err != nil {
			return err
		}
		return pl.RefreshZoneRT(z, e.RT)
	case OpAddServer:
		if err := b.AddServer(e.Server, e.Capacity, e.Row, e.ClientRTTs, e.Spare); err != nil {
			return err
		}
		if m.dir != nil {
			m.dir.ServerNodes = append(m.dir.ServerNodes, e.Node)
		}
	case OpRemoveServer:
		i, _ := b.ServerIndexOf(e.Server)
		if err := b.RemoveServer(e.Server); err != nil {
			return err
		}
		if m.dir != nil {
			// The same swap-remove the binding just followed.
			last := len(m.dir.ServerNodes) - 1
			m.dir.ServerNodes[i] = m.dir.ServerNodes[last]
			m.dir.ServerNodes = m.dir.ServerNodes[:last]
		}
	case OpDrainServer:
		return b.DrainServer(e.Server)
	case OpUncordon:
		return b.UncordonServer(e.Server)
	case OpAddZone:
		return b.AddZone(e.Zone, e.Host)
	case OpRetireZone:
		return b.RetireZone(e.Zone)
	case OpSetAdjacency, OpAddAdjacency:
		zs, err := b.zones.indices([]string{e.Zone, e.Zone2})
		if err != nil {
			return err
		}
		if e.Op == OpSetAdjacency {
			return pl.SetAdjacency(zs[0], zs[1], e.Weight)
		}
		return pl.AddAdjacency(zs[0], zs[1], e.Weight)
	case OpResolve:
		return pl.FullSolve()
	default:
		return fmt.Errorf("%w %q", errUnknownOp, e.Op)
	}
	return nil
}

// Check is the admission rule for every event, under both front ends, which
// call it before Append: it refuses, changing nothing, an event that names
// an unknown client, server or zone on any ID field (refresh list and RTT
// keys included) or adds a present one, repeats a batch member, carries an
// empty or inadmissible ID (CheckClientID), a delay row without one entry
// per server, batch fields of different lengths, a bandwidth or capacity not
// finite > 0, a delay not finite >= 0, an edge weight not finite > 0 (a set
// may remove with 0) or a self-edge. The director's auto-ID join that
// collides with a taken ID passes: it is journaled bare so the ID sequence
// replays, and Apply rejects it.
func (m *Machine) Check(e *Event) error {
	b := m.b
	for _, r := range e.Refresh {
		if err := b.checkZoneRT(r.Zone, r.RT); err != nil {
			return err
		}
	}
	switch e.Op {
	case OpJoin:
		if _, taken := b.clients.idx[e.ID]; taken && e.Auto {
			return nil
		}
		return first(b.checkJoin(e.ID, e.Zone, e.RT, e.Row), b.clients.fresh(e.ID))
	case OpJoinBatch:
		if n := len(e.IDs); len(e.Zones) != n || len(e.RTs) != n || len(e.Rows) != n {
			return fmt.Errorf("repair: batch of %d ids, %d zones, %d bandwidths and %d rows",
				n, len(e.Zones), len(e.RTs), len(e.Rows))
		}
		for x, id := range e.IDs {
			if err := b.checkJoin(id, e.Zones[x], e.RTs[x], e.Rows[x]); err != nil {
				return err
			}
		}
		return b.clients.fresh(e.IDs...)
	case OpLeave:
		return known(b.Index(e.ID))
	case OpLeaveBatch:
		return known(b.batch(e.IDs))
	case OpMove:
		var err error
		if e.RT != 0 { // 0: the mover keeps its bandwidth
			err = checkRT(e.ID, e.RT)
		}
		return first(known(b.ZoneIndex(e.Zone)), known(b.Index(e.ID)), err)
	case OpMoveBatch:
		if len(e.Zones) != len(e.IDs) {
			return fmt.Errorf("repair: batch of %d ids and %d zones", len(e.IDs), len(e.Zones))
		}
		for _, z := range e.Zones {
			if err := known(b.ZoneIndex(z)); err != nil {
				return err
			}
		}
		return known(b.batch(e.IDs))
	case OpDelayRow:
		return first(known(b.Index(e.ID)), b.checkRow("client", e.ID, e.Row))
	case OpServerDelays:
		return first(known(b.ServerIndex(e.Server)), b.checkClientRTTs(e.Server, e.RTTs))
	case OpSetBandwidth:
		return first(known(b.Index(e.ID)), checkRT(e.ID, e.RT))
	case OpSetZoneBW:
		return b.checkZoneRT(e.Zone, e.RT)
	case OpAddServer:
		switch {
		case e.Server == "":
			return errors.New("empty server ID")
		case !FinitePos(e.Capacity):
			return fmt.Errorf("server %q capacity %v Mbps, want finite > 0", e.Server, e.Capacity)
		}
		return first(b.servers.fresh(e.Server), b.checkRow("server", e.Server, e.Row), b.checkClientRTTs(e.Server, e.ClientRTTs))
	case OpRemoveServer, OpDrainServer, OpUncordon:
		return known(b.ServerIndex(e.Server))
	case OpAddZone:
		if e.Zone == "" {
			return errors.New("empty zone ID")
		}
		return known(b.zoneHost(e.Zone, e.Host))
	case OpRetireZone:
		return known(b.ZoneIndex(e.Zone))
	case OpSetAdjacency, OpAddAdjacency:
		return first(known(b.ZoneIndex(e.Zone)), known(b.ZoneIndex(e.Zone2)), CheckEdge(e.Op, e.Zone, e.Zone2, e.Weight))
	}
	return nil
}

// Exec is the write path of an in-process driver that journals nothing (the
// churn simulator, the traffic experiment): the admission rule, then the
// interpreter.
func (m *Machine) Exec(e *Event) error {
	if err := m.Check(e); err != nil {
		return err
	}
	return m.Apply(e)
}

// Audit is Planner.Audit plus the machine's own tables: each ID table is the
// inverse of its index map, one ID per dense index, and a director machine
// holds a node per server and per client ID. It writes nothing.
func (m *Machine) Audit() error {
	b, pl := m.b, m.b.pl
	if err := pl.Audit(); err != nil {
		return err
	}
	for _, t := range []struct {
		names *names
		n     int
	}{{&b.clients, pl.NumClients()}, {&b.servers, pl.NumServers()}, {&b.zones, pl.NumZones()}} {
		for i, id := range t.names.ids {
			if j, ok := t.names.idx[id]; !ok || j != i {
				return fmt.Errorf("repair: audit: ID %q at dense index %d is indexed at %d (present %v)", id, i, j, ok)
			}
		}
		if len(t.names.ids) != t.n || len(t.names.idx) != t.n {
			return fmt.Errorf("repair: audit: %d IDs and %d index entries for %d dense indices", len(t.names.ids), len(t.names.idx), t.n)
		}
	}
	if m.dir == nil {
		return nil
	}
	if len(m.dir.ServerNodes) != pl.NumServers() || len(m.clientNode) != b.Len() {
		return fmt.Errorf("repair: audit: %d server and %d client nodes for %d servers and %d clients",
			len(m.dir.ServerNodes), len(m.clientNode), pl.NumServers(), b.Len())
	}
	for _, id := range b.clients.ids {
		if _, ok := m.clientNode[id]; !ok {
			return fmt.Errorf("repair: audit: client %q has no node", id)
		}
	}
	return nil
}

// known keeps only the error of a lookup.
func known[T any](_ T, err error) error { return err }

// first returns the first non-nil error, in argument order.
func first(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkJoin is Check's rule for one joining client but its freshness.
func (b *IDBinding) checkJoin(id, zone string, rt float64, row []float64) error {
	return first(CheckClientID(id), known(b.ZoneIndex(zone)), checkRT(id, rt), b.checkRow("client", id, row))
}

// checkRT refuses a client bandwidth that is not finite > 0.
func checkRT(id string, rt float64) error {
	if !FinitePos(rt) {
		return fmt.Errorf("client %q bandwidth %v Mbps, want finite > 0", id, rt)
	}
	return nil
}

// checkZoneRT refuses an unknown zone or a zone bandwidth not finite > 0.
func (b *IDBinding) checkZoneRT(zone string, rt float64) error {
	if _, err := b.ZoneIndex(zone); err != nil || FinitePos(rt) {
		return err
	}
	return fmt.Errorf("zone %q bandwidth %v Mbps, want finite > 0", zone, rt)
}

// checkRow refuses a dense delay row that is not one finite, non-negative
// entry per current server; kind and owner name the row's owner.
func (b *IDBinding) checkRow(kind, owner string, row []float64) error {
	if m := b.pl.NumServers(); len(row) != m {
		return fmt.Errorf("repair: delay row has %d entries, want %d", len(row), m)
	}
	for i, d := range row {
		if !FiniteNonNeg(d) {
			return fmt.Errorf("%s %q RTT to server %q is %v ms, want finite >= 0", kind, owner, b.servers.ids[i], d)
		}
	}
	return nil
}

// checkClientRTTs refuses client-keyed RTTs naming an unknown client or
// carrying a delay not finite >= 0.
func (b *IDBinding) checkClientRTTs(server string, rtts map[string]float64) error {
	for cid, d := range rtts {
		if _, ok := b.clients.idx[cid]; !ok {
			return fmt.Errorf("server %q RTT: %w %q", server, ErrUnknownClient, cid)
		}
		if !FiniteNonNeg(d) {
			return fmt.Errorf("server %q RTT to client %q is %v ms, want finite >= 0", server, cid, d)
		}
	}
	return nil
}

// SnapshotVersion tags the Snapshot schema; recovery rejects snapshots from
// a future schema rather than misreading them, and still reads every older
// version. Version 2 added the delay-provider state (version-1 snapshots are
// always dense and carry per-client rows instead).
const SnapshotVersion = 2

// Snapshot is one durable checkpoint of a Machine: the full cluster spec (the
// normalized WriteClusterJSON form), the planner sidecar (assignment,
// evaluator accumulators, guard counters, RNG position) and the
// trajectory-shaping config. Everything a placement decision depends on is in
// here; knobs that only affect throughput (worker count) or durability
// housekeeping (checkpoint cadence) stay with the caller.
type Snapshot struct {
	Version         int         `json:"version"`
	LSN             uint64      `json:"lsn"`
	Algo            string      `json:"algo"`
	Overflow        int         `json:"overflow"`
	DriftPQoS       float64     `json:"drift_pqos,omitempty"`
	DriftUtilSpread float64     `json:"drift_util_spread,omitempty"`
	Cluster         ClusterJSON `json:"cluster"`
	Planner         *State      `json:"planner"`
	// Provider is the delay-provider state of a machine over the coordinate
	// delay model (snapshot version >= 2; older builds also wrote the exact
	// store's state here, kind "shared"). When set, the cluster's clients
	// carry no rtt_row_ms — the provider state IS the delay store, and
	// recovery reconstructs it bit-identically.
	Provider *core.ProviderState `json:"provider,omitempty"`
	// Director is the director front end's typed extra; absent from session
	// snapshots, whose bytes are unchanged by it.
	Director *DirectorState `json:"director,omitempty"`

	// loadTime is what LoadSnapshot spent reading and decoding it.
	loadTime time.Duration
}

// ClusterJSON is the interchange form of a cluster spec: the contract
// between real deployments (measured inventories exported by ops tooling)
// and dvecap.ReadClusterJSON — and the population half of every Snapshot.
type ClusterJSON struct {
	DelayBoundMs float64      `json:"delay_bound_ms"`
	Servers      []ServerJSON `json:"servers"`
	ServerRTTsMs [][]float64  `json:"server_rtts_ms,omitempty"`
	Zones        []string     `json:"zones"`
	Clients      []ClientJSON `json:"clients"`
	// ZoneAdjacency lists the interaction graph's edges (canonical order:
	// lower zone index first, ascending) and TrafficWeight the traffic
	// term's weight λ (DESIGN.md §15). Both absent on clusters without the
	// traffic term — pre-traffic specs load unchanged.
	ZoneAdjacency []AdjacencyJSON `json:"zone_adjacency,omitempty"`
	TrafficWeight float64         `json:"traffic_weight,omitempty"`
}

// AdjacencyJSON is one interaction edge of the cluster spec, zone-ID keyed.
type AdjacencyJSON struct {
	Zone1      string  `json:"zone1"`
	Zone2      string  `json:"zone2"`
	WeightMbps float64 `json:"weight_mbps"`
}

// ServerJSON is one server of the cluster spec.
type ServerJSON struct {
	ID           string             `json:"id"`
	CapacityMbps float64            `json:"capacity_mbps"`
	RTTsMs       map[string]float64 `json:"rtts_ms,omitempty"`
}

// ClientJSON is one client of the cluster spec.
type ClientJSON struct {
	ID            string             `json:"id"`
	Zone          string             `json:"zone"`
	BandwidthMbps float64            `json:"bandwidth_mbps"`
	RTTsMs        map[string]float64 `json:"rtts_ms,omitempty"`
	RTTRowMs      core.FloatRow      `json:"rtt_row_ms,omitempty"`
}

// NewClusterJSON renders a problem as a cluster spec under the given names:
// serverIDs and zoneIDs in dense order, clientIDs[j] the client at dense
// index j — the one writer behind WriteClusterJSON and every snapshot. With
// rows set each client carries its dense delay row (Problem.DenseRows);
// otherwise none does. The interaction graph's
// edges come out in canonical order and absent when there are none, so
// pre-traffic specs and snapshots are byte-identical to what earlier builds
// wrote.
func NewClusterJSON(p *core.Problem, serverIDs, zoneIDs, clientIDs []string, rows bool) ClusterJSON {
	var cs [][]float64
	if rows {
		cs = p.DenseRows()
	}
	cj := ClusterJSON{
		DelayBoundMs:  p.D,
		Servers:       make([]ServerJSON, len(serverIDs)),
		ServerRTTsMs:  p.SS,
		Zones:         append([]string(nil), zoneIDs...),
		Clients:       make([]ClientJSON, len(clientIDs)),
		TrafficWeight: p.TrafficWeight,
	}
	for i, id := range serverIDs {
		cj.Servers[i] = ServerJSON{ID: id, CapacityMbps: p.ServerCaps[i]}
	}
	for j, id := range clientIDs {
		cj.Clients[j] = ClientJSON{ID: id, Zone: zoneIDs[p.ClientZones[j]], BandwidthMbps: p.ClientRT[j]}
		if rows {
			cj.Clients[j].RTTRowMs = cs[j]
		}
	}
	if g := p.Adjacency; g != nil {
		for _, e := range g.Edges() {
			cj.ZoneAdjacency = append(cj.ZoneAdjacency, AdjacencyJSON{Zone1: zoneIDs[e.A], Zone2: zoneIDs[e.B], WeightMbps: e.W})
		}
	}
	return cj
}

// Encode writes the spec as indented JSON: the one encoding of every
// exported spec (dvecap's Cluster.WriteClusterJSON and the director's
// GET /v1/problem).
func (cj ClusterJSON) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cj)
}

// Render renders the machine's full durable state as of lsn. Of everything
// a reader can see it only reads — the director calls it under its write
// sequencer while readers carry on. It writes twice, both to state no reader
// touches: the evaluator's cache barrier (core.Evaluator.ExportState
// invalidates the candidate-delta rows, which only writers, excluded by
// that sequencer, ever touch), so this process and one recovered from the
// rendered snapshot build the same rows from here on; and the provider's
// deferred coordinate fits (core.CoordProvider.State), which no read
// consults.
func (m *Machine) Render(lsn uint64) ([]byte, error) {
	b, pl := m.b, m.b.pl
	p := pl.prob
	// Dense client order IS the planner's problem order; the snapshot's
	// client list follows it, so recovery names the same clients the same.
	ids := b.clients.ids
	prov := snapshotProvider(p)
	cj := NewClusterJSON(p, b.servers.ids, b.zones.ids, ids, prov == nil)
	st, err := pl.ExportState()
	if err != nil {
		return nil, err
	}
	var dir *DirectorState
	if m.dir != nil {
		d := *m.dir
		d.ClientNodes = make([]int, len(ids))
		for j, id := range ids {
			d.ClientNodes[j] = m.clientNode[id]
		}
		dir = &d
	}
	return json.Marshal(Snapshot{
		Version:         SnapshotVersion,
		LSN:             lsn,
		Algo:            m.algo,
		Overflow:        m.overflow,
		DriftPQoS:       pl.cfg.DriftPQoS,
		DriftUtilSpread: pl.cfg.DriftUtilSpread,
		Cluster:         cj,
		Planner:         st,
		Provider:        prov,
		Director:        dir,
	})
}

// snapshotProvider decides what a snapshot stores for the delays: nothing
// of the exact store's own — each client carries its row, and recovery
// groups the rows afresh, since no read depends on a group id — and the
// coordinate provider's state, whose internals (coordinates, override
// lists) recovery must restore bit-identically.
func snapshotProvider(p *core.Problem) *core.ProviderState {
	if _, exact := p.Delays.(*core.SharedRowProvider); exact {
		return nil
	}
	return p.Delays.State()
}

// problem rebuilds the planner's problem from the snapshot: topology and
// population from the cluster spec, delays from the per-client rows (the
// planner loads them into the exact store) or from the serialized provider
// state (reconstructed bit-identically by core.NewProviderFromState; a
// stored exact store, kind "shared", comes back as itself).
func (snap *Snapshot) problem() (*core.Problem, error) {
	cj := &snap.Cluster
	zoneIdx := make(map[string]int, len(cj.Zones))
	for z, id := range cj.Zones {
		zoneIdx[id] = z
	}
	k := len(cj.Clients)
	p := &core.Problem{
		ServerCaps:    make([]float64, len(cj.Servers)),
		ClientZones:   make([]int, k),
		NumZones:      len(cj.Zones),
		ClientRT:      make([]float64, k),
		SS:            cj.ServerRTTsMs,
		D:             cj.DelayBoundMs,
		TrafficWeight: cj.TrafficWeight,
	}
	if snap.Provider != nil {
		dp, err := core.NewProviderFromState(snap.Provider)
		if err != nil {
			return nil, err
		}
		p.Delays = dp
	} else {
		p.CS = make([][]float64, k)
	}
	for i, sv := range cj.Servers {
		p.ServerCaps[i] = sv.CapacityMbps
	}
	for j, cl := range cj.Clients {
		z, ok := zoneIdx[cl.Zone]
		if !ok {
			return nil, fmt.Errorf("client %q: unknown zone %q", cl.ID, cl.Zone)
		}
		p.ClientZones[j] = z
		p.ClientRT[j] = cl.BandwidthMbps
		if p.CS != nil {
			p.CS[j] = cl.RTTRowMs
		}
	}
	if len(cj.ZoneAdjacency) > 0 {
		g := interact.New(p.NumZones)
		for _, e := range cj.ZoneAdjacency {
			a, okA := zoneIdx[e.Zone1]
			b, okB := zoneIdx[e.Zone2]
			if !okA || !okB {
				return nil, fmt.Errorf("adjacency (%q,%q): unknown zone", e.Zone1, e.Zone2)
			}
			if _, err := g.Set(a, b, e.WeightMbps); err != nil {
				return nil, fmt.Errorf("adjacency (%q,%q): %w", e.Zone1, e.Zone2, err)
			}
		}
		p.Adjacency = g
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// RestoreMachine rebuilds the machine a snapshot captured: problem, planner
// (NewFromState), ID binding, director extra. cfg carries what the front end
// derives from the snapshot's fingerprint (algorithm, overflow policy) plus
// the caller's worker count; the guard thresholds are the stored ones.
// Follow with Recover.
func RestoreMachine(snap *Snapshot, cfg Config) (*Machine, error) {
	start := time.Now()
	if snap.Planner == nil {
		return nil, fmt.Errorf("repair: snapshot misses the planner state")
	}
	p, err := snap.problem()
	if err != nil {
		return nil, fmt.Errorf("snapshot cluster: %w", err)
	}
	cfg.DriftPQoS, cfg.DriftUtilSpread = snap.DriftPQoS, snap.DriftUtilSpread
	pl, err := NewFromState(cfg, p, snap.Planner)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(snap.Cluster.Clients))
	for j, cl := range snap.Cluster.Clients {
		ids[j] = cl.ID
	}
	serverIDs := make([]string, len(snap.Cluster.Servers))
	for i, sv := range snap.Cluster.Servers {
		serverIDs[i] = sv.ID
	}
	b, err := RestoreIDBinding(pl, ids, serverIDs, snap.Cluster.Zones)
	if err != nil {
		return nil, err
	}
	m, err := NewMachine(b, snap.Algo, snap.Overflow, snap.Director)
	if err != nil {
		return nil, err
	}
	m.snapLoad = snap.loadTime + time.Since(start)
	return m, nil
}
