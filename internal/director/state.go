// Package director implements an online client-assignment service: the
// operational form of the paper's architecture (Fig. 1). It keeps the live
// state of a geographically distributed server deployment — server nodes,
// capacities, the measured delay matrix, the client population — and
// applies every join, leave and move through the incremental churn-repair
// subsystem (internal/repair): the event's client is re-attached greedily
// and a localized zone-move scan repairs around the zones it touched, all
// in O(affected). A full two-phase re-execution — the paper's §3.4
// prescription for DVE dynamics — still runs on demand, on a timer, or
// automatically when the planner's drift guard is armed (Config.DriftPQoS).
//
// The HTTP API (server.go) exposes this over JSON for non-Go consumers;
// Client (client.go) is the Go binding.
package director

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"dvecap/internal/autoscale"
	"dvecap/internal/core"
	"dvecap/internal/repair"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// Sentinel errors shared with the repair subsystem's ID binding (and
// re-exported by the public dvecap package), so errors.Is works across
// every layer. The HTTP handler maps ErrUnknownClient to 404.
var (
	// ErrUnknownClient reports an operation on a client ID that is not
	// (or no longer) registered.
	ErrUnknownClient = repair.ErrUnknownClient
	// ErrDuplicateClient reports a join under an ID already registered.
	ErrDuplicateClient = repair.ErrDuplicateClient
)

// Config configures a director instance.
type Config struct {
	// ServerNodes and ServerCaps place the deployment's servers on the
	// topology covered by Delays.
	ServerNodes []int
	ServerCaps  []float64
	// Zones is the number of virtual-world zones.
	Zones int
	// Delays is the measured RTT oracle for all topology nodes.
	Delays *topology.DelayMatrix
	// DelayBoundMs is the interactivity bound D.
	DelayBoundMs float64
	// FrameRate and MessageBytes parameterise the bandwidth model.
	FrameRate    float64
	MessageBytes float64
	// Algorithm names the two-phase algorithm run on Reassign
	// (default "GreZ-GreC").
	Algorithm string
	// DelayModel selects the client↔server delay representation backing the
	// planner's problem: "dense" (or empty, the default) keeps the raw CS
	// matrix, "coord" binds a core.CoordProvider (coordinates plus exact
	// measurement overrides), "shared" binds a core.SharedRowProvider,
	// which deduplicates identical delay rows — clients joining at the same
	// topology node share one physical row, the memory diet for large
	// populations on modest topologies. Assignments are bit-identical
	// across models: the director always feeds full oracle-derived rows, so
	// every model resolves the same delays (DESIGN.md §13). On recovery the
	// stored model supersedes this field, like the rest of the deployment.
	DelayModel string
	// Seed drives the algorithm's randomised choices.
	Seed uint64
	// DriftPQoS, when > 0, arms the repair planner's quality guard: a full
	// two-phase re-solve fires automatically once pQoS decays more than
	// this far below the last full solve's level. 0 leaves full solves to
	// Reassign calls and the reassign loop.
	DriftPQoS float64
	// TrafficWeight is the λ ≥ 0 weighting the inter-server traffic term
	// against delay cost in the repair objective (DESIGN.md §15). The term
	// activates once λ > 0 AND at least one adjacency edge is installed
	// (POST /v1/adjacency); at 0 — the default — assignments are
	// bit-identical to a director without the term, though the cut weight
	// remains observable in Stats. On recovery the stored deployment's
	// weight supersedes this field, like the rest of the problem.
	TrafficWeight float64
	// DriftUtilSpread, when > 0, arms the load-imbalance guard: a full
	// re-solve fires once the max−min per-server utilization spread (over
	// non-drained servers) grows more than this far above the last full
	// solve's baseline — catching hot spots that pQoS alone cannot see.
	DriftUtilSpread float64
	// DataDir, when set, makes the director durable (DESIGN.md §11): every
	// mutation is journaled to a write-ahead log under this directory
	// before it is applied, and New recovers the stored state — snapshot
	// plus log-tail replay — when the directory already holds any. The
	// recovering caller must pass the same Delays oracle, Algorithm,
	// DelayBoundMs, FrameRate and MessageBytes; the stored deployment
	// (servers, zones, guard thresholds) supersedes the config's.
	DataDir string
	// SnapshotEvery, with DataDir, checkpoints automatically every this
	// many journaled events (0 = only explicit Checkpoint calls).
	SnapshotEvery int
	// Workers shards the assignment engine's parallelisable scans — the
	// evaluator's zone-move search and full solves' cost-matrix build —
	// across this many goroutines (0 or 1 sequential, negative all CPUs).
	// Assignments are bit-identical for every setting; see DESIGN.md §8.
	Workers int
	// Telemetry, when set, attaches a metrics registry: the repair planner,
	// evaluator cache and (with DataDir) the write-ahead log register their
	// series there, the HTTP handler records per-route request metrics, and
	// GET /metrics renders everything in Prometheus text format. Telemetry
	// is observation only — it never changes an assignment decision
	// (DESIGN.md §12). Nil disables all of it.
	Telemetry *telemetry.Registry
	// Logger receives structured operational logs (recovery progress,
	// checkpoint results, response-write failures). Nil discards them.
	Logger *slog.Logger
	// Trace, when set, emits one JSON trace event per API request
	// (operation "METHOD route", raw path, duration, HTTP outcome) through
	// the handler middleware. Nil disables tracing.
	Trace *telemetry.Tracer
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case len(c.ServerNodes) == 0:
		return fmt.Errorf("director: no servers")
	case len(c.ServerNodes) != len(c.ServerCaps):
		return fmt.Errorf("director: %d server nodes but %d capacities", len(c.ServerNodes), len(c.ServerCaps))
	case c.Zones <= 0:
		return fmt.Errorf("director: Zones = %d, want > 0", c.Zones)
	case c.Delays == nil:
		return fmt.Errorf("director: nil delay matrix")
	case !repair.FinitePos(c.DelayBoundMs):
		return fmt.Errorf("director: DelayBoundMs = %v, want finite > 0", c.DelayBoundMs)
	case !repair.FinitePos(c.FrameRate):
		return fmt.Errorf("director: FrameRate = %v, want finite > 0", c.FrameRate)
	case !repair.FinitePos(c.MessageBytes):
		return fmt.Errorf("director: MessageBytes = %v, want finite > 0", c.MessageBytes)
	case !repair.FiniteNonNeg(c.DriftPQoS):
		return fmt.Errorf("director: DriftPQoS = %v, want finite >= 0", c.DriftPQoS)
	case !repair.FiniteNonNeg(c.DriftUtilSpread):
		return fmt.Errorf("director: DriftUtilSpread = %v, want finite >= 0", c.DriftUtilSpread)
	case !repair.FiniteNonNeg(c.TrafficWeight):
		return fmt.Errorf("director: TrafficWeight = %v, want finite >= 0", c.TrafficWeight)
	case c.SnapshotEvery < 0:
		return fmt.Errorf("director: SnapshotEvery = %v, want >= 0", c.SnapshotEvery)
	}
	switch c.DelayModel {
	case "", "dense", "coord", "shared":
	default:
		return fmt.Errorf("director: DelayModel = %q, want dense, coord or shared", c.DelayModel)
	}
	for i, n := range c.ServerNodes {
		if n < 0 || n >= c.Delays.N() {
			return fmt.Errorf("director: server %d on node %d outside delay matrix (%d nodes)", i, n, c.Delays.N())
		}
		if !repair.FinitePos(c.ServerCaps[i]) {
			return fmt.Errorf("director: server %d capacity %v, want finite > 0", i, c.ServerCaps[i])
		}
	}
	return nil
}

// Director is the thread-safe assignment service: one of the two front ends
// over the journaled assignment state machine (repair.Machine, DESIGN.md
// §11). The machine is the single owner of the assignment — binding, planner,
// journal, the interpreter live writes and replay share, the snapshot. The
// director adds what is its own: the locks, a delay source (Config.Delays:
// topology node → measured row, resolved when a client joins or a server is
// added), the population-dependent bandwidth model, and stable names for its
// servers ("s0"…) and zones ("z0"…, ref.go). Every mutator resolves its
// arguments to ONE canonical repair.Event (the *Event methods) and commits
// it (persist.go).
//
// Two locks guard it (DESIGN.md §11, "Lock discipline"). wmu is the write
// sequencer: a mutator holds it from validation to the auto-checkpoint, so
// it orders writers and, with them, the journal. mu guards the state readers
// see and is write-held only for the machine's Apply step of a mutation.
// State changes only with BOTH held — so wmu alone suffices to validate and
// to render a snapshot, mu.RLock alone suffices to read, and no fsync,
// snapshot render or file write ever runs under mu. Lock order is wmu
// before mu, never the reverse.
type Director struct {
	// cfg is the caller's configuration. Its ServerNodes, ServerCaps and Zones
	// describe the INITIAL deployment only; the live topology is the machine's.
	cfg  Config
	algo core.TwoPhase

	wmu sync.Mutex   // write sequencer; alone guards the writer-only fields below
	mu  sync.RWMutex // state lock

	// m changes only under wmu+mu (Apply); its journal calls (Append, Applied,
	// Checkpoint) are writer-only, serialised by wmu.
	m *repair.Machine
	// autoRec is the autoscaling reconciler (EnableAutoscale); nil until
	// enabled. It owns its own lock — only the pointer is guarded by mu.
	autoRec *autoscale.Reconciler

	// Writer-only scratch, guarded by wmu alone: the delay row and refresh
	// list of the event being resolved (consumed before the mutator returns).
	csBuf  []float64
	refBuf [2]repair.ZoneRT

	// recovering is true while New replays the journal; the HTTP handler
	// sheds traffic (503 + Retry-After) until it clears.
	recovering atomic.Bool

	// log is never nil (defaults to discard); tele and trace are
	// Config.Telemetry/Config.Trace and may be nil (instrumentation off).
	log    *slog.Logger
	tele   *telemetry.Registry
	trace  *telemetry.Tracer
	stages writeStages
}

// New builds a director and computes an initial (empty-world) zone
// assignment. With Config.DataDir set, the director is durable: a data
// directory that already holds state is recovered (newest snapshot plus
// log-tail replay, bit-identical to the pre-crash trajectory), otherwise
// a baseline snapshot is established and the journal opened.
func New(cfg Config) (*Director, error) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = "GreZ-GreC"
	}
	if cfg.DataDir != "" {
		has, err := repair.JournalExists(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		if has {
			return recoverDirector(cfg)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	algo, ok := core.ByName(cfg.Algorithm)
	if !ok {
		return nil, fmt.Errorf("director: unknown algorithm %q", cfg.Algorithm)
	}
	// With no clients every zone is cost-free everywhere; spread zones
	// round-robin so early joins have sane targets.
	roundRobin := make([]int, cfg.Zones)
	for z := range roundRobin {
		roundRobin[z] = z % len(cfg.ServerNodes)
	}
	pl, err := repair.NewWithAssignment(cfg.plannerConfig(algo), cfg.emptyProblem(), &core.Assignment{
		ZoneServer:    roundRobin,
		ClientContact: []int{},
	}, xrand.New(cfg.Seed).Split())
	if err != nil {
		return nil, err
	}
	b, err := repair.RestoreIDBinding(pl, nil, names("s", len(cfg.ServerNodes)), names("z", cfg.Zones))
	if err != nil {
		return nil, err
	}
	m, err := repair.NewMachine(b, algo.Name, 0, &repair.DirectorState{
		FrameRate:    cfg.FrameRate,
		MessageBytes: cfg.MessageBytes,
		ServerNodes:  cfg.ServerNodes,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		pl.SetTelemetry(cfg.Telemetry)
	}
	if cfg.DataDir != "" {
		if err := m.MakeDurable(cfg.journalConfig()); err != nil {
			return nil, err
		}
	}
	return newDirector(cfg, algo, m), nil
}

// newDirector wraps a ready machine — fresh or recovered.
func newDirector(cfg Config, algo core.TwoPhase, m *repair.Machine) *Director {
	d := &Director{cfg: cfg, algo: algo, m: m, log: cfg.Logger, tele: cfg.Telemetry, trace: cfg.Trace}
	if d.log == nil {
		d.log = slog.New(slog.DiscardHandler)
	}
	d.stages = newWriteStages(cfg.Telemetry, cfg.DataDir != "")
	return d
}

// plannerConfig is the repair planner's configuration under this director.
func (c Config) plannerConfig(algo core.TwoPhase) repair.Config {
	return repair.Config{
		Algo:            algo,
		Opt:             core.Options{Overflow: core.SpillLargestResidual, Workers: c.Workers},
		DriftPQoS:       c.DriftPQoS,
		DriftUtilSpread: c.DriftUtilSpread,
	}
}

// planner returns the repair planner behind the machine's binding.
func (d *Director) planner() *repair.Planner { return d.m.Binding().Planner() }

// emptyProblem snapshots the deployment's static side (servers, capacities,
// inter-server delays, the bound) with zero clients — the planner's seed.
// Config.DelayModel selects the delay representation: every join streams a
// full oracle-derived row, which providers store exactly (coord keeps it as
// overrides, shared dedupes identical rows), so the model never changes an
// assignment.
func (c Config) emptyProblem() *core.Problem {
	m := len(c.ServerNodes)
	p := &core.Problem{
		ServerCaps:  append([]float64(nil), c.ServerCaps...),
		ClientZones: []int{},
		NumZones:    c.Zones,
		ClientRT:    []float64{},
		SS:          make([][]float64, m),
		D:           c.DelayBoundMs,
		// The traffic weight rides the problem from birth; the term itself
		// stays dormant until the first adjacency edge arrives.
		TrafficWeight: c.TrafficWeight,
	}
	for i := 0; i < m; i++ {
		p.SS[i] = make([]float64, m)
		for l := 0; l < m; l++ {
			p.SS[i][l] = c.Delays.ServerRTT(c.ServerNodes[i], c.ServerNodes[l])
		}
	}
	switch c.DelayModel {
	case "coord":
		p.Delays = core.NewCoordProviderFromSS(p.SS, 0)
	case "shared":
		p.Delays = core.NewSharedRowProvider(m)
	default:
		p.CS = [][]float64{}
	}
	return p
}

// ClientInfo is the externally visible state of one client. Zone, Contact
// and Target are dense indices (they renumber when a zone or server is
// removed); the *ID fields name the same zone and servers stably.
type ClientInfo struct {
	ID        string  `json:"id"`
	Node      int     `json:"node"`
	Zone      int     `json:"zone"`
	Contact   int     `json:"contact"`
	Target    int     `json:"target"`
	DelayMs   float64 `json:"delay_ms"`
	QoS       bool    `json:"qos"`
	ZoneID    string  `json:"zone_id"`
	ContactID string  `json:"contact_id"`
	TargetID  string  `json:"target_id"`
}

// Join registers a client at a topology node entering a zone (by dense
// index; JoinRef also takes the zone's stable ID). id may be empty, in which
// case one is generated. The client is admitted through the repair planner:
// attached greedily (directly to its target when within the bound, otherwise
// through the feasible contact server minimising its effective delay — one
// step of GreC's logic), with a localized repair pass around the zone it
// entered.
func (d *Director) Join(id string, node, zone int) (ClientInfo, error) {
	return d.JoinRef(id, node, Index(zone))
}

// JoinRef is Join with the zone addressed by Ref.
func (d *Director) JoinRef(id string, node int, zone Ref) (ClientInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commitClient(d.joinEvent(id, node, zone, id == ""))
}

// joinEvent resolves a join: the delay row from the oracle, the bandwidth
// from the entered zone's grown population, and — so Join's repair pass
// judges feasibility against up-to-date loads — the incumbents' refresh to
// that bandwidth, applied before the planner event. The event carries the
// MATERIALIZED id plus the auto flag, so the machine advances the ID
// sequence on replay exactly as it did live. That holds for an auto-issued
// ID that collides with a caller-chosen one too: the join has consumed its
// sequence number, so it is journaled — bare, nothing to apply; the
// machine admits it and Apply rejects it, live and on replay. Every other
// refusal (an invalid or taken ID, a bad row) is the machine's Check.
func (d *Director) joinEvent(id string, node int, zone Ref, auto bool) (*repair.Event, error) {
	if node < 0 || node >= d.cfg.Delays.N() {
		return nil, fmt.Errorf("director: node %d outside topology", node)
	}
	z, err := d.zoneIndex(zone)
	if err != nil {
		return nil, fmt.Errorf("director: join: %v", err)
	}
	if id == "" {
		id = fmt.Sprintf("c%06d", d.m.Seq()+1)
	}
	b := d.m.Binding()
	e := &repair.Event{Op: repair.OpJoin, ID: id, Zone: b.ZoneID(z), Node: node, Auto: auto}
	if _, err := b.Index(id); err == nil && auto {
		return e, nil
	}
	d.csBuf = d.delayRow(d.csBuf[:0], node)
	e.RT, e.Row = d.zoneClientRT(d.zonePop(z)+1), d.csBuf
	e.Refresh = append(d.refBuf[:0], repair.ZoneRT{Zone: e.Zone, RT: e.RT})
	return e, nil
}

// Leave removes a client, repairing around the zone it vacated.
func (d *Director) Leave(id string) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commit(d.leaveEvent(id))
}

// leaveEvent resolves a leave: the zone is refreshed to the post-departure
// population before the event (the departing client's smaller RT is
// subtracted consistently), so the repair pass inside Leave sees up-to-date
// loads.
func (d *Director) leaveEvent(id string) (*repair.Event, error) {
	z, err := d.clientZone(id)
	if err != nil {
		return nil, err
	}
	return &repair.Event{Op: repair.OpLeave, ID: id, Refresh: d.repriced(d.refBuf[:0], z, -1)}, nil
}

// Move relocates a client's avatar to another zone (by dense index; MoveRef
// also takes its stable ID) and re-attaches it, repairing around both
// affected zones.
func (d *Director) Move(id string, zone int) (ClientInfo, error) { return d.MoveRef(id, Index(zone)) }

// MoveRef is Move with the zone addressed by Ref.
func (d *Director) MoveRef(id string, zone Ref) (ClientInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commitClient(d.moveEvent(id, zone))
}

// moveEvent resolves a move. Both zones' bandwidth is brought up to date
// before the event — the vacated zone's members to the shrunk population's
// RT, the entered zone's incumbents and the mover itself to the grown one's
// — so Move's repair pass sees exact loads.
func (d *Director) moveEvent(id string, zone Ref) (*repair.Event, error) {
	old, err := d.clientZone(id)
	if err != nil {
		return nil, err
	}
	z, err := d.zoneIndex(zone)
	if err != nil {
		return nil, fmt.Errorf("director: move: %v", err)
	}
	e := &repair.Event{Op: repair.OpMove, ID: id, Zone: d.m.Binding().ZoneID(z)}
	if z != old {
		e.Refresh = d.repriced(d.repriced(d.refBuf[:0], old, -1), z, +1)
		e.RT = d.zoneClientRT(d.zonePop(z) + 1)
	}
	return e, nil
}

// UpdateDelays replaces a client's measured delay row with freshly probed
// RTTs (one entry per server, in server order; ms) and streams the refresh
// into the repair planner: the client is re-attached if the new delays
// pushed it out of bound, and a localized repair pass runs around its zone
// — no full re-solve. This is the mouth for measurement-estimator refresh
// streams (King/IDMaps re-probes).
func (d *Director) UpdateDelays(id string, rtts []float64) (ClientInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commitClient(&repair.Event{Op: repair.OpDelayRow, ID: id, Row: rtts}, nil)
}

// delayRow appends to dst the delay source's answer for a client at node:
// its measured RTT to every server, in dense server order.
func (d *Director) delayRow(dst []float64, node int) []float64 {
	for _, sn := range d.m.ServerNodes() {
		dst = append(dst, d.cfg.Delays.RTT(node, sn))
	}
	return dst
}

// zonePop is the zone's current population.
func (d *Director) zonePop(z int) int { return len(d.planner().Evaluator().ZoneClients(z)) }

// zoneClientRT is the bandwidth requirement of one client of a zone holding
// pop clients.
func (d *Director) zoneClientRT(pop int) float64 {
	if pop == 0 {
		pop = 1
	}
	bytesPerSec := d.cfg.FrameRate * (d.cfg.MessageBytes + float64(pop)*d.cfg.MessageBytes)
	return bytesPerSec * 8 / 1e6
}

// repriced appends to rs the bandwidth refresh zone z needs once its
// population has changed by delta — none when that empties it.
func (d *Director) repriced(rs []repair.ZoneRT, z, delta int) []repair.ZoneRT {
	if pop := d.zonePop(z) + delta; pop > 0 {
		rs = append(rs, repair.ZoneRT{Zone: d.m.Binding().ZoneID(z), RT: d.zoneClientRT(pop)})
	}
	return rs
}

// clientZone returns the dense index of the zone a registered client is in.
func (d *Director) clientZone(id string) (int, error) {
	j, err := d.m.Binding().Index(id)
	if err != nil {
		return 0, fmt.Errorf("director: %w", err)
	}
	return d.planner().Problem().ClientZones[j], nil
}

// Lookup returns a client's current assignment.
func (d *Director) Lookup(id string) (ClientInfo, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.info(id)
}

// info renders a registered client from the planner's maintained solution.
// The caller holds mu (a reader) or wmu (a writer answering its own
// mutation).
func (d *Director) info(id string) (ClientInfo, error) {
	j, err := d.m.Binding().Index(id)
	if err != nil {
		return ClientInfo{}, fmt.Errorf("director: %w", err)
	}
	return d.infoAt(j, id), nil
}

// infoAt is info for the client at dense index j.
func (d *Director) infoAt(j int, id string) ClientInfo {
	b, pl := d.m.Binding(), d.planner()
	zone := pl.Problem().ClientZones[j]
	contact, target := pl.Evaluator().Contact(j), pl.ZoneHost(zone)
	delay := pl.Evaluator().ClientDelay(j)
	return ClientInfo{
		ID:        id,
		Node:      d.m.ClientNode(id),
		Zone:      zone,
		Contact:   contact,
		Target:    target,
		DelayMs:   delay,
		QoS:       delay <= d.cfg.DelayBoundMs,
		ZoneID:    b.ZoneID(zone),
		ContactID: b.ServerID(contact),
		TargetID:  b.ServerID(target),
	}
}

// problemLocked snapshots the current population as a dense core.Problem,
// clients in the planner's dense order — the order Snapshot lists them in.
// Delay rows come from the planner's live state, so measured updates
// (UpdateDelays) are reflected rather than re-derived from the topology
// oracle.
func (d *Director) problemLocked() *core.Problem {
	p := d.planner().Problem().Clone()
	p.CS, p.Delays = p.DenseRows(), nil
	return p
}

// Stats summarises the current system state, including the repair
// subsystem's counters.
type Stats struct {
	Clients int `json:"clients"`
	// Servers and Zones track the live topology (server add/drain/remove
	// and zone add/retire mutate both); Draining counts servers mid-drain.
	Servers     int     `json:"servers"`
	Zones       int     `json:"zones"`
	Draining    int     `json:"draining"`
	WithQoS     int     `json:"with_qos"`
	PQoS        float64 `json:"pqos"`
	Utilization float64 `json:"utilization"`
	Algorithm   string  `json:"algorithm"`
	// Repair-subsystem counters: incremental events handled (including
	// measured-delay refreshes), full two-phase re-solves, zones rehosted
	// (localized repairs plus full-solve diffs), contact re-placements
	// made by the repair path, and the current pQoS drift below the last
	// full solve's level.
	RepairEvents    int     `json:"repair_events"`
	DelayUpdates    int     `json:"delay_updates"`
	FullSolves      int     `json:"full_solves"`
	ImbalanceSolves int     `json:"imbalance_solves"`
	ZoneHandoffs    int     `json:"zone_handoffs"`
	ContactSwitches int     `json:"contact_switches"`
	LastDriftPQoS   float64 `json:"last_drift_pqos"`
	LastUtilSpread  float64 `json:"util_spread"`
	// Traffic-term observability (DESIGN.md §15). AdjacencyEdges counts the
	// interaction graph's live edges and AdjacencyEdits the cumulative edge
	// updates applied; TrafficCrossEdges/TrafficCutMbps are how many of
	// those edges (and how much summed weight) currently straddle two
	// servers — the director's estimate of cross-server broadcast traffic.
	// TrafficCost is weight × cut as it enters the repair objective (0
	// while the term is off) and TrafficWeight the configured λ. Zero
	// fields are absent from the JSON, so a pre-traffic director's stats
	// payload is unchanged.
	AdjacencyEdges    int     `json:"adjacency_edges,omitempty"`
	AdjacencyEdits    int     `json:"adjacency_edits,omitempty"`
	TrafficCrossEdges int     `json:"traffic_cross_edges,omitempty"`
	TrafficCutMbps    float64 `json:"traffic_cut_mbps,omitempty"`
	TrafficCost       float64 `json:"traffic_cost,omitempty"`
	TrafficWeight     float64 `json:"traffic_weight,omitempty"`
	// LastSolveError surfaces a failed drift-guard full solve (empty when
	// the last one succeeded).
	LastSolveError string `json:"last_solve_error,omitempty"`
}

// Stats reads current quality metrics off the planner's incrementally
// maintained state — O(1), no population rescan.
func (d *Director) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.statsLocked()
}

func (d *Director) statsLocked() Stats {
	pl := d.planner()
	s := Stats{Clients: pl.NumClients(), Algorithm: d.algo.Name}
	s.Servers = pl.NumServers()
	s.Zones = pl.NumZones()
	for i := 0; i < s.Servers; i++ {
		if pl.Draining(i) {
			s.Draining++
		}
	}
	st := pl.Stats()
	s.RepairEvents = st.Events
	s.DelayUpdates = st.DelayUpdates
	s.FullSolves = st.FullSolves
	s.ImbalanceSolves = st.ImbalanceSolves
	s.ZoneHandoffs = st.ZoneHandoffs
	s.ContactSwitches = st.ContactSwitches
	s.LastDriftPQoS = st.LastDriftPQoS
	s.LastUtilSpread = st.LastUtilSpread
	s.LastSolveError = st.LastSolveError
	s.AdjacencyEdits = st.AdjacencyEdits
	s.TrafficCrossEdges, s.AdjacencyEdges = pl.CrossEdges()
	s.TrafficCutMbps = pl.TrafficCut()
	s.TrafficCost = pl.TrafficCost()
	s.TrafficWeight = pl.Problem().TrafficWeight
	if s.Clients == 0 {
		return s
	}
	s.WithQoS = pl.WithQoS()
	s.PQoS = pl.PQoS()
	s.Utilization = pl.Utilization()
	return s
}

// ReassignResult reports a full re-execution.
type ReassignResult struct {
	Stats
	Moved int `json:"moved"` // clients whose contact changed
}

// Reassign re-runs the configured two-phase algorithm over the whole
// population (the paper's answer to accumulated churn) and installs the
// result.
func (d *Director) Reassign() (ReassignResult, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.planner().NumClients() == 0 {
		// Nothing to solve — and nothing journaled, so empty reassigns
		// (e.g. a timer firing on an idle service) don't grow the log.
		return ReassignResult{Stats: d.statsLocked()}, nil
	}
	if err := d.commit(&repair.Event{Op: repair.OpResolve}, nil); err != nil {
		return ReassignResult{}, err
	}
	// The adoption counted the switched contacts while installing them.
	return ReassignResult{Stats: d.statsLocked(), Moved: d.planner().LastAdoption().Switched}, nil
}

// ProblemSnapshot exports the live state as a core.Problem (client j is
// Snapshot()[j]), for offline analysis or exact solving.
func (d *Director) ProblemSnapshot() *core.Problem {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.problemLocked()
}

// Snapshot lists all clients in the planner's dense order — a function of
// the journaled history alone, so a director recovered from a checkpoint
// lists them exactly as one that never stopped.
func (d *Director) Snapshot() []ClientInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]ClientInfo, d.planner().NumClients())
	for j, id := range d.m.Binding().DenseIDs() {
		out[j] = d.infoAt(j, id)
	}
	return out
}
