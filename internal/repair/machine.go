package repair

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/interact"
	"dvecap/internal/wal"
	"dvecap/telemetry"
)

// Machine is the one journaled assignment state machine (DESIGN.md §11): the
// single owner of the client→server assignment, under both front ends. It
// owns the ID binding over the planner, the admission rule (check), the
// journal (journal.go), the interpreter (apply — the only place an EventOp
// turns into a state change, live and on replay alike), the snapshot body
// and the recover path. A front end owns resolving a verb to an Event
// (ClusterSession: specs → zone, bandwidth, row; the director: topology
// node → measured row, population → bandwidth), its locks and its traces.
//
// Commit is the one write path; Recover replays through the same apply.
// Not safe for concurrent use.
type Machine struct {
	b    *IDBinding
	algo string

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
	closed         bool
	// hook is the fault tests' crash-injection point. It is consulted through
	// the crash method, so tests can install it after the surface is open.
	hook func(point string) error
	// snapLoad is what loading and restoring the snapshot a recovering
	// machine starts from cost; Recover reports it, and wraps a failure in
	// skipped, why that snapshot is not the newest (Snapshot.Skipped).
	snapLoad time.Duration
	skipped  error

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

// NewMachine wraps a binding whose topology is named. algo is recorded in
// snapshots as the front end spells it; dir, when set, makes this a
// director-side machine.
func NewMachine(b *IDBinding, algo string, dir *DirectorState) (*Machine, error) {
	m := &Machine{b: b, algo: algo}
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
	b, err := BindPlanner(Names("c", pl.NumClients()), Names("s", pl.NumServers()), Names("z", pl.NumZones()),
		func() (*Planner, error) { return pl, nil })
	if err != nil {
		return nil, err
	}
	return NewMachine(b, algo, nil)
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

// errRefused marks, adding no text, what check refuses and apply rejects.
var errRefused = errors.New("")

// Refused prefixes the text of an error Commit returns for an event check
// refused or apply rejected with the front end's name ("dvecap: …"), and
// returns a journal or checkpoint fault as it is.
func Refused(surface string, err error) error {
	if errors.Is(err, errRefused) {
		return fmt.Errorf("%s: %w", surface, err)
	}
	return err
}

// Commit is the machine's one write path: check (a refused event journals
// nothing), append (synced BEFORE the apply), apply (holding lock when one
// is given: the director's state lock), the durable bookkeeping (an epoch
// marker after a full re-solve, the checkpoint cadence) and checkpoint when
// one is due. An event apply rejects stays journaled (replay rejects it
// again) and skips the bookkeeping. A machine that is not durable journals
// nothing and never finds a checkpoint due.
func (m *Machine) Commit(e *Event, lock sync.Locker, checkpoint func() error) error {
	if err := m.check(e); err != nil {
		return fmt.Errorf("%w%w", errRefused, err)
	}
	if err := m.append(e); err != nil {
		return err
	}
	if lock != nil {
		lock.Lock()
	}
	err := m.apply(e)
	if lock != nil {
		lock.Unlock()
	}
	if err != nil {
		return fmt.Errorf("%w%w", errRefused, err)
	}
	if fs := m.b.pl.stats.FullSolves; fs != m.lastFullSolves {
		m.lastFullSolves = fs
		if err := m.append(&Event{Op: OpEpoch, FullSolves: fs}); err != nil {
			return err
		}
	}
	if m.sinceSnap++; m.cfg.SnapshotEvery > 0 && m.sinceSnap >= m.cfg.SnapshotEvery {
		return checkpoint()
	}
	return nil
}

// apply interprets one event against the binding: the refresh list first,
// then the event's own step through the binding's and planner's mutators (a
// move re-prices the mover, then migrates it). An error means the step was
// rejected and changed nothing. It sees only ops the schema holds (check,
// EventDecoder) and no epoch marker (replayLog).
func (m *Machine) apply(e *Event) error {
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
		zs, err := b.zones.indices(&b.zs, e.Zones)
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
		zs, err := b.zones.indices(&b.zs, e.Zones)
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
		zs, err := b.zones.indices(&b.zs, []string{e.Zone, e.Zone2})
		if err != nil {
			return err
		}
		if e.Op == OpSetAdjacency {
			return pl.SetAdjacency(zs[0], zs[1], e.Weight)
		}
		return pl.AddAdjacency(zs[0], zs[1], e.Weight)
	case OpResolve:
		return pl.FullSolve()
	}
	return nil
}

// check is the admission rule for every event Commit takes: it refuses,
// changing nothing, an epoch marker (the journal's own record), an op or a
// field the schema does not hold for it (Event.schema), an event that names
// an unknown client, server or zone on any ID field (refresh list and RTT
// keys included) or adds a present one, repeats a batch member, carries an
// empty or inadmissible ID (CheckClientID), a delay row without one entry
// per server, batch fields of different lengths, a bandwidth or capacity not
// finite > 0, a delay not finite >= 0, an edge weight not finite > 0 (a set
// may remove with 0) or a self-edge. The director's auto-ID join that
// collides with a taken ID passes: it is journaled bare so the ID sequence
// replays, and apply rejects it.
func (m *Machine) check(e *Event) error {
	if err := e.schema(); err != nil || e.Op == OpEpoch {
		return first(err, errors.New("epoch markers are the journal's own"))
	}
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

// checkJoin is check's rule for one joining client but its freshness.
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
// always dense and carry per-client rows instead). Version 3 moved the dense
// float arrays out of the JSON document into one binary block after it
// (FloatBlock); versions 1–2 carry them as JSON numbers. Version 4 moved
// every per-client column into that block too, and stores the exact store
// as its own state, each distinct row once, so the document is
// O(servers + zones).
const SnapshotVersion = 4

// Snapshot is one durable checkpoint of a Machine: the full cluster spec (the
// normalized WriteClusterJSON form), the planner sidecar (assignment,
// evaluator accumulators, guard counters, RNG position) and the
// trajectory-shaping config. Everything a placement decision depends on is in
// here; knobs that only affect throughput (worker count) or durability
// housekeeping (checkpoint cadence) stay with the caller.
//
// On disk a version-4 snapshot is its compact JSON document, a newline and
// the block the document frames (encode, decodeSnapshot); loaded, the
// block's columns sit in the structs the document names, and an older
// version's client objects and rows are moved into the same places
// (fromClients), so every version reads the same from here on.
type Snapshot struct {
	Version int    `json:"version"`
	LSN     uint64 `json:"lsn"`
	Algo    string `json:"algo"`
	// Overflow records the overflow policy: 0, spilling, the only one
	// either front end runs and the only one RestoreMachine accepts (older
	// builds could record 1, fail on overflow).
	Overflow        int         `json:"overflow"`
	DriftPQoS       float64     `json:"drift_pqos,omitempty"`
	DriftUtilSpread float64     `json:"drift_util_spread,omitempty"`
	Cluster         ClusterJSON `json:"cluster"`
	Planner         *State      `json:"planner"`
	// Provider is the delay store's state (snapshot version >= 2; versions
	// 2–3 wrote it for the coordinate store only, and the exact store's
	// state, kind "shared", only under the former "shared" model). When
	// set, the cluster's clients carry no rtt_row_ms — the provider state IS
	// the delay store, and recovery reconstructs it bit-identically.
	Provider *core.ProviderState `json:"provider,omitempty"`
	// Director is the director front end's typed extra; absent from session
	// snapshots, whose bytes are unchanged by it.
	Director *DirectorState `json:"director,omitempty"`
	// Block frames a version-3–4 snapshot's block. It is the last member,
	// so encode can append it to the rest of the document.
	Block *FloatBlock `json:"block,omitempty"`

	// ids, zones and bw are the population's columns in dense order:
	// client IDs, zone indices and bandwidths.
	ids   []string
	zones []int
	bw    []float64

	// loadTime is what LoadSnapshot spent reading and decoding it; skipped
	// is why it skipped the newer generations, nil when there were none.
	loadTime time.Duration
	skipped  error
}

// Skipped returns why LoadSnapshot passed over each newer generation,
// newest first, as one error wrapping them; nil when it loaded the newest.
func (s *Snapshot) Skipped() error { return s.skipped }

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
// index j with its dense delay row (Problem.DenseRows) — the one writer
// behind WriteClusterJSON, GET /v1/problem and, with no client objects,
// every snapshot document. The interaction graph's edges come out in
// canonical order and absent when there are none, so pre-traffic specs and
// snapshots are byte-identical to what earlier builds wrote.
func NewClusterJSON(p *core.Problem, serverIDs, zoneIDs, clientIDs []string) ClusterJSON {
	var cs [][]float64
	if len(clientIDs) > 0 {
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
		cj.Clients[j] = ClientJSON{ID: id, Zone: zoneIDs[p.ClientZones[j]], BandwidthMbps: p.ClientRT[j], RTTRowMs: cs[j]}
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
	// columns follow it, so recovery names the same clients the same. Its
	// client columns are the machine's own: encode only reads them.
	ids := b.clients.ids
	prov := p.Delays.State()
	cj := NewClusterJSON(p, b.servers.ids, b.zones.ids, nil)
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
	return Snapshot{
		LSN:             lsn,
		Algo:            m.algo,
		DriftPQoS:       pl.cfg.DriftPQoS,
		DriftUtilSpread: pl.cfg.DriftUtilSpread,
		Cluster:         cj,
		Planner:         st,
		Provider:        prov,
		Director:        dir,
		ids:             ids,
		zones:           p.ClientZones,
		bw:              p.ClientRT,
	}.encode()
}

// FloatBlock frames the block of a version-3–4 snapshot file: Length bytes
// from file offset Offset — just past the document's newline — to the end
// of the file, and their CRC32-C. Count is the number of little-endian
// float64 values a version-3 block holds, and the number of clients whose
// columns a version-4 block holds (eachBlockArray).
type FloatBlock struct {
	Offset int    `json:"offset"`
	Length int    `json:"length"`
	Count  int    `json:"count"`
	CRC32C uint32 `json:"crc32c"`
}

// castagnoli is the CRC32-C table, the polynomial the log frames use too.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// eachBlockArray visits, in block order, every column a version-4 snapshot
// of k clients keeps in its block, with the length its document and the
// columns before it give: per client its ID, zone index, bandwidth,
// contact server and, in a director's snapshot, topology node; each zone's
// members in the evaluator's bucket order; then the delay store — the
// coordinate store's client coordinates (Dim per client), override servers
// and values, or the exact store's group per client, refcounts, free list
// and each group's row (a free slot's is empty).
func (snap *Snapshot) eachBlockArray(c *blockCodec, k int) {
	pl := snap.Planner
	c.strs(&snap.ids, k)
	column(c, &snap.zones, k)
	column(c, &snap.bw, k)
	column(c, &pl.ClientContact, k)
	lists(c, &pl.Eval.ZoneMembers, len(snap.Cluster.Zones))
	if d := snap.Director; d != nil {
		column(c, &d.ClientNodes, k)
	}
	if co := snap.Provider.Coord; co != nil {
		column(c, (*[]float64)(&co.Cli), co.Dim*k)
		lists(c, &co.OvSrv, k)
		lists(c, (*[][]float64)(&co.OvVal), k)
	}
	if s := snap.Provider.Shared; s != nil {
		column(c, &s.Group, k)
		column(c, &s.Refs, c.count(len(s.Refs)))
		column(c, &s.Free, c.count(len(s.Free)))
		lists(c, (*[][]float64)(&s.Rows), len(s.Refs))
	}
}

// blockCodec is what eachBlockArray drives over the columns: it sizes them
// (n), writes them into b, reads them from b or clears them (undo). An
// integer is a little-endian int32 — every integer column holds indices or
// lengths — and a float64 its 8 bytes. The first column that does not fit
// stops it.
type blockCodec struct {
	mode byte
	b    []byte
	n    int
	err  error
	undo []func() // restores what clearing cleared
}

// stash clears *a, keeping what it held for undo.
func stash[T any](c *blockCodec, a *T) {
	held := *a
	c.undo = append(c.undo, func() { *a = held })
	*a = *new(T)
}

// The blockCodec modes.
const (
	sizing byte = iota
	writing
	reading
	clearing
)

// errInline refuses a document that carries a column its block holds.
var errInline = errors.New("document carries a block column itself")

// column sizes, writes, reads or clears one column of n values.
func column[T int | int32 | float64](c *blockCodec, a *[]T, n int) {
	_, wide := any(T(0)).(float64)
	width := 4
	if wide {
		width = 8
	}
	switch {
	case c.err != nil:
	case c.mode == clearing:
		stash(c, a)
	case c.mode == sizing && len(*a) != n:
		c.err = fmt.Errorf("a column of %d values where the document gives %d", len(*a), n)
	case c.mode == sizing:
		c.n += width * n
	case c.mode == writing:
		for _, v := range *a {
			if wide {
				binary.LittleEndian.PutUint64(c.b, math.Float64bits(float64(v)))
			} else {
				binary.LittleEndian.PutUint32(c.b, uint32(int32(v)))
			}
			c.b = c.b[width:]
		}
	case *a != nil:
		c.err = errInline
	case n < 0 || n > len(c.b)/width:
		c.err = errors.New("block ends before its columns")
	default:
		out := make([]T, n)
		for i := range out {
			if wide {
				out[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(c.b[8*i:])))
			} else {
				out[i] = T(int32(binary.LittleEndian.Uint32(c.b[4*i:])))
			}
		}
		*a, c.b = out, c.b[width*n:]
	}
}

// lengths visits a column of n lengths: those of the have elements lenOf
// measures when sized or written, read into a fresh slice.
func lengths(c *blockCodec, have int, lenOf func(x int) int, n int) (lens []int) {
	for x := 0; x < have && c.mode != reading; x++ {
		lens = append(lens, lenOf(x))
	}
	column(c, &lens, n)
	return lens
}

// lists visits n lists: a column of their lengths, then each list.
func lists[T int | int32 | float64](c *blockCodec, a *[][]T, n int) {
	lens := lengths(c, len(*a), func(x int) int { return len((*a)[x]) }, n)
	switch {
	case c.err != nil:
		return
	case c.mode == clearing:
		stash(c, a)
		return
	case c.mode == reading && *a != nil:
		c.err = errInline
		return
	case c.mode == reading:
		*a = make([][]T, n)
	}
	for x := range *a {
		column(c, &(*a)[x], lens[x])
	}
}

// count is a length the block carries itself: written as n, read back; 0
// once the codec has failed or when clearing.
func (c *blockCodec) count(n int) int {
	return append(lengths(c, 1, func(int) int { return n }, 1), 0)[0]
}

// strs visits n strings as one table: a column of their lengths, then
// their bytes back to back, read as one string the n share.
func (c *blockCodec) strs(a *[]string, n int) {
	lens, total := lengths(c, len(*a), func(x int) int { return len((*a)[x]) }, n), 0
	for _, l := range lens {
		total += max(l, 0)
	}
	switch {
	case c.err != nil:
	case c.mode == clearing:
		stash(c, a)
	case c.mode == sizing:
		c.n += total
	case c.mode == writing:
		for _, s := range *a {
			c.b = c.b[copy(c.b, s):]
		}
	case slices.ContainsFunc(lens, func(l int) bool { return l < 0 }) || total > len(c.b):
		c.err = errors.New("block ends before its columns")
	default:
		table := string(c.b[:total])
		*a, c.b = make([]string, n), c.b[total:]
		for i, l := range lens {
			(*a)[i], table = table[:l], table[l:]
		}
	}
}

// encode renders snap as a version-4 snapshot file: the compact JSON
// document without the block's columns (json.Marshal never writes a raw
// newline), a newline, then the block. The columns are cleared while the
// document is marshaled and restored after, so snap is left as it was.
func (snap Snapshot) encode() ([]byte, error) {
	if snap.Planner == nil || snap.Planner.Eval == nil || snap.Provider == nil {
		return nil, fmt.Errorf("repair: snapshot: no planner state or delay store")
	}
	k := len(snap.ids)
	size := blockCodec{mode: sizing}
	if snap.eachBlockArray(&size, k); size.err != nil {
		return nil, fmt.Errorf("repair: snapshot: %w", size.err)
	}
	cleared := blockCodec{mode: clearing}
	snap.eachBlockArray(&cleared, k)
	snap.Version, snap.Block = SnapshotVersion, nil
	raw, err := json.Marshal(snap)
	for _, undo := range cleared.undo {
		undo()
	}
	if err != nil {
		return nil, err
	}
	return frameBlock(raw, size.n, k, func(block []byte) {
		snap.eachBlockArray(&blockCodec{mode: writing, b: block}, k)
	}), nil
}

// frameBlock appends to doc, a compact JSON object, the member that frames
// a block of n bytes holding count values or clients (a FloatBlock under
// "block", so the document is what json.Marshal writes for the Snapshot with
// its Block set), then a newline and the block, which fill writes in place:
// the block is written once.
func frameBlock(doc []byte, n, count int, fill func(block []byte)) []byte {
	// The header goes in front of the block, whose CRC its member names:
	// leave room for the longest member.
	longest, _ := json.Marshal(FloatBlock{Offset: math.MaxInt, Length: math.MaxInt, Count: math.MaxInt, CRC32C: math.MaxUint32})
	room := len(doc) - 1 + len(`,"block":`) + len(longest) + len("}\n")
	out := make([]byte, room+n)
	fill(out[room:])
	// The member names the block's offset, the header's length: find the
	// offset its own digits leave true.
	blk := FloatBlock{Length: n, Count: count, CRC32C: crc32.Checksum(out[room:], castagnoli)}
	var member []byte
	for {
		member, _ = json.Marshal(blk) // a struct of numbers always marshals
		off := len(doc) - 1 + len(`,"block":`) + len(member) + len("}\n")
		if off == blk.Offset {
			break
		}
		blk.Offset = off
	}
	out = out[room-blk.Offset:]
	head := append(append(out[:0], doc[:len(doc)-1]...), `,"block":`...)
	_ = append(append(head, member...), '}', '\n')
	return out
}

// fromClients moves a version-1–3 snapshot's client objects into the
// columns version 4 keeps (their zone IDs resolved to indices) and, when it
// carries no store state, their delay rows into the exact store's state,
// grouped as the store groups them on insertion.
func (snap *Snapshot) fromClients() error {
	cj := &snap.Cluster
	zoneIdx := make(map[string]int, len(cj.Zones))
	for z, id := range cj.Zones {
		zoneIdx[id] = z
	}
	k, m := len(cj.Clients), len(cj.Servers)
	ids, zones, bw := make([]string, k), make([]int, k), make([]float64, k)
	var sp *core.SharedRowProvider
	if snap.Provider == nil {
		sp = core.NewSharedRowProvider(m)
	}
	for j, c := range cj.Clients {
		z, ok := zoneIdx[c.Zone]
		if !ok {
			return fmt.Errorf("client %q: unknown zone %q", c.ID, c.Zone)
		}
		ids[j], zones[j], bw[j] = c.ID, z, c.BandwidthMbps
		if sp != nil {
			if len(c.RTTRowMs) != m {
				return fmt.Errorf("client %q carries %d delays for %d servers", c.ID, len(c.RTTRowMs), m)
			}
			sp.AppendClient(c.RTTRowMs)
		}
	}
	if sp != nil {
		snap.Provider = sp.State()
	}
	snap.ids, snap.zones, snap.bw, cj.Clients = ids, zones, bw, nil
	return nil
}

// problem rebuilds the planner's problem from the snapshot: topology from
// the cluster spec, population from the client columns, delays from the
// store's state (reconstructed bit-identically by core.NewProviderFromState).
func (snap *Snapshot) problem() (*core.Problem, error) {
	cj := &snap.Cluster
	dp, err := core.NewProviderFromState(snap.Provider)
	if err != nil {
		return nil, err
	}
	p := &core.Problem{
		ServerCaps:    make([]float64, len(cj.Servers)),
		ClientZones:   snap.zones,
		NumZones:      len(cj.Zones),
		ClientRT:      snap.bw,
		SS:            cj.ServerRTTsMs,
		D:             cj.DelayBoundMs,
		TrafficWeight: cj.TrafficWeight,
		Delays:        dp,
	}
	for i, sv := range cj.Servers {
		p.ServerCaps[i] = sv.CapacityMbps
	}
	if len(cj.ZoneAdjacency) > 0 {
		zoneIdx := make(map[string]int, len(cj.Zones))
		for z, id := range cj.Zones {
			zoneIdx[id] = z
		}
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
// derives from the snapshot's fingerprint (algorithm) plus the caller's
// worker count; the guard thresholds are the stored ones. The client name
// table is built beside the problem and planner (BindPlanner). A snapshot
// recorded under a policy other than spilling is refused: replayed under
// spilling, its log could pass a solve the original run failed.
// Follow with Recover.
func RestoreMachine(snap *Snapshot, cfg Config) (*Machine, error) {
	start := time.Now()
	if snap.Planner == nil {
		return nil, fmt.Errorf("repair: snapshot misses the planner state")
	}
	if snap.Overflow != 0 {
		return nil, fmt.Errorf("repair: snapshot records overflow policy %d; only spilling (0) is supported", snap.Overflow)
	}
	cfg.DriftPQoS, cfg.DriftUtilSpread = snap.DriftPQoS, snap.DriftUtilSpread
	serverIDs := make([]string, len(snap.Cluster.Servers))
	for i, sv := range snap.Cluster.Servers {
		serverIDs[i] = sv.ID
	}
	b, err := BindPlanner(snap.ids, serverIDs, snap.Cluster.Zones, func() (*Planner, error) {
		p, err := snap.problem()
		if err != nil {
			return nil, fmt.Errorf("snapshot cluster: %w", err)
		}
		return NewFromState(cfg, p, snap.Planner)
	})
	if err != nil {
		return nil, err
	}
	m, err := NewMachine(b, snap.Algo, snap.Director)
	if err != nil {
		return nil, err
	}
	m.snapLoad, m.skipped = snap.loadTime+time.Since(start), snap.skipped
	return m, nil
}
