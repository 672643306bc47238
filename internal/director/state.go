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
	case c.DelayBoundMs <= 0:
		return fmt.Errorf("director: DelayBoundMs = %v, want > 0", c.DelayBoundMs)
	case c.FrameRate <= 0:
		return fmt.Errorf("director: FrameRate = %v, want > 0", c.FrameRate)
	case c.MessageBytes <= 0:
		return fmt.Errorf("director: MessageBytes = %v, want > 0", c.MessageBytes)
	case c.DriftPQoS < 0:
		return fmt.Errorf("director: DriftPQoS = %v, want >= 0", c.DriftPQoS)
	case c.DriftUtilSpread < 0:
		return fmt.Errorf("director: DriftUtilSpread = %v, want >= 0", c.DriftUtilSpread)
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
		if c.ServerCaps[i] <= 0 {
			return fmt.Errorf("director: server %d capacity %v, want > 0", i, c.ServerCaps[i])
		}
	}
	return nil
}

// clientRec holds the identity-layer state of one registered client (its
// planner-side state lives behind the ID binding).
type clientRec struct {
	node int
	zone int
}

// Director is the thread-safe assignment service state. The repair planner
// is the single source of truth for zone hosting and client contacts —
// reached through the same ID binding the public Cluster API uses — and
// the director layers identity (string IDs, registration order), the
// topology delay oracle and the bandwidth model on top of it.
//
// Two locks guard it (DESIGN.md §11, "Lock discipline"). wmu is the write
// sequencer: a mutator holds it from validation to the auto-checkpoint, so
// it orders writers and, with them, the journal. mu guards the state readers
// see and is write-held only for the in-memory apply step of a mutation.
// State changes only with BOTH held — so wmu alone suffices to validate and
// to render a snapshot, mu.RLock alone suffices to read, and no fsync,
// snapshot render or file write ever runs under mu. Lock order is wmu
// before mu, never the reverse.
type Director struct {
	cfg  Config
	algo core.TwoPhase

	wmu sync.Mutex   // write sequencer; alone guards the writer-only fields below
	mu  sync.RWMutex // state lock

	// Guarded state: these, and cfg's live-topology fields (ServerNodes,
	// ServerCaps, Zones), change only under wmu+mu.
	clients map[string]*clientRec
	binding *repair.IDBinding // ID ↔ planner handle map + registration order
	zonePop []int
	rng     *xrand.RNG
	// autoRec is the autoscaling reconciler (EnableAutoscale); nil until
	// enabled. It owns its own lock — only the pointer is guarded by mu.
	autoRec *autoscale.Reconciler

	// Writer-only fields, guarded by wmu alone: the auto-ID sequence
	// (advanced before the journal append that records it), the delay-row
	// scratch buffer and the durability engine (nil when not durable; the
	// pointer is fixed at construction, its calls are serialised by wmu).
	seq   uint64
	csBuf []float64
	dur   *repair.Journal

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

// logger resolves Config.Logger to a non-nil handle.
func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.New(slog.DiscardHandler)
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
	d := &Director{
		cfg:     cfg,
		algo:    algo,
		clients: map[string]*clientRec{},
		rng:     xrand.New(cfg.Seed),
		zonePop: make([]int, cfg.Zones),
		csBuf:   make([]float64, len(cfg.ServerNodes)),
		log:     cfg.logger(),
		tele:    cfg.Telemetry,
		trace:   cfg.Trace,
		stages:  newWriteStages(cfg.Telemetry, cfg.DataDir != ""),
	}
	// With no clients every zone is cost-free everywhere; spread zones
	// round-robin so early joins have sane targets.
	roundRobin := make([]int, cfg.Zones)
	for z := range roundRobin {
		roundRobin[z] = z % len(cfg.ServerNodes)
	}
	pl, err := repair.NewWithAssignment(repair.Config{
		Algo:            algo,
		Opt:             core.Options{Overflow: core.SpillLargestResidual, Workers: cfg.Workers},
		DriftPQoS:       cfg.DriftPQoS,
		DriftUtilSpread: cfg.DriftUtilSpread,
	}, d.emptyProblem(), &core.Assignment{
		ZoneServer:    roundRobin,
		ClientContact: []int{},
	}, d.rng.Split())
	if err != nil {
		return nil, err
	}
	d.binding, err = repair.NewIDBinding(pl, nil)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		pl.SetTelemetry(cfg.Telemetry)
	}
	if cfg.DataDir != "" {
		d.dur, err = repair.CreateJournal(cfg.journalConfig(), pl, d.snapshotPayloadLocked)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// planner returns the repair planner behind the binding.
func (d *Director) planner() *repair.Planner { return d.binding.Planner() }

// emptyProblem snapshots the deployment's static side (servers, capacities,
// inter-server delays, the bound) with zero clients — the planner's seed.
// Config.DelayModel selects the delay representation: every join streams a
// full oracle-derived row, which providers store exactly (coord keeps it as
// overrides, shared dedupes identical rows), so the model never changes an
// assignment.
func (d *Director) emptyProblem() *core.Problem {
	m := len(d.cfg.ServerNodes)
	p := &core.Problem{
		ServerCaps:  append([]float64(nil), d.cfg.ServerCaps...),
		ClientZones: []int{},
		NumZones:    d.cfg.Zones,
		ClientRT:    []float64{},
		SS:          make([][]float64, m),
		D:           d.cfg.DelayBoundMs,
		// The traffic weight rides the problem from birth; the term itself
		// stays dormant until the first adjacency edge arrives.
		TrafficWeight: d.cfg.TrafficWeight,
	}
	for i := 0; i < m; i++ {
		p.SS[i] = make([]float64, m)
		for l := 0; l < m; l++ {
			p.SS[i][l] = d.serverServerRTT(i, l)
		}
	}
	switch d.cfg.DelayModel {
	case "coord":
		p.Delays = core.NewCoordProviderFromSS(p.SS, 0)
	case "shared":
		p.Delays = core.NewSharedRowProvider(m)
	default:
		p.CS = [][]float64{}
	}
	return p
}

// ClientInfo is the externally visible state of one client.
type ClientInfo struct {
	ID      string  `json:"id"`
	Node    int     `json:"node"`
	Zone    int     `json:"zone"`
	Contact int     `json:"contact"`
	Target  int     `json:"target"`
	DelayMs float64 `json:"delay_ms"`
	QoS     bool    `json:"qos"`
}

// Join registers a client at a topology node entering a zone. id may be
// empty, in which case one is generated. The client is admitted through
// the repair planner: attached greedily (directly to its target when
// within the bound, otherwise through the feasible contact server
// minimising its effective delay — one step of GreC's logic), with a
// localized repair pass around the zone it entered.
func (d *Director) Join(id string, node, zone int) (ClientInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if node < 0 || node >= d.cfg.Delays.N() {
		return ClientInfo{}, fmt.Errorf("director: node %d outside topology", node)
	}
	if zone < 0 || zone >= d.cfg.Zones {
		return ClientInfo{}, fmt.Errorf("director: zone %d outside [0,%d)", zone, d.cfg.Zones)
	}
	auto := id == ""
	if auto {
		d.seq++
		id = fmt.Sprintf("c%06d", d.seq)
	}
	// Journal with the MATERIALIZED id plus the auto flag, so replay
	// re-advances the ID sequence exactly as the live path did. That holds
	// for an auto-issued ID that collides with a caller-chosen one too: the
	// rejected join has consumed its sequence number, so it is journaled
	// like every other rejected event and replay re-rejects it.
	_, exists := d.clients[id]
	if auto || !exists {
		if err := d.journal(&repair.Event{Op: repair.OpDJoin, ID: id, Node: node, ZoneIdx: zone, Auto: auto}); err != nil {
			if auto {
				d.seq--
			}
			return ClientInfo{}, err
		}
	}
	if exists {
		return ClientInfo{}, fmt.Errorf("director: %w %q", ErrDuplicateClient, id)
	}
	for i := range d.csBuf {
		d.csBuf[i] = d.clientServerRTT(node, i)
	}
	rec := &clientRec{node: node, zone: zone}
	if err := d.apply(func() error {
		// Incumbents are refreshed to the new population's RT before the
		// planner event, so Join's repair pass judges feasibility against
		// up-to-date loads.
		d.zonePop[zone]++
		d.refreshZoneRTLocked(zone)
		rt := d.zoneClientRT(zone)
		if err := d.binding.Join(id, zone, rt, d.csBuf); err != nil {
			d.zonePop[zone]--
			d.refreshZoneRTLocked(zone)
			return err
		}
		d.clients[id] = rec
		return nil
	}); err != nil {
		return ClientInfo{}, err
	}
	if err := d.afterApply(); err != nil {
		return ClientInfo{}, err
	}
	return d.infoLocked(id, rec), nil
}

// Leave removes a client, repairing around the zone it vacated.
func (d *Director) Leave(id string) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	rec, ok := d.clients[id]
	if !ok {
		return fmt.Errorf("director: %w %q", ErrUnknownClient, id)
	}
	return d.commit(&repair.Event{Op: repair.OpDLeave, ID: id}, func() error {
		// Refresh to the post-departure population before the event (the
		// departing client's smaller RT is subtracted consistently), so the
		// repair pass inside Leave sees up-to-date loads.
		d.zonePop[rec.zone]--
		d.refreshZoneRTLocked(rec.zone)
		if err := d.binding.Leave(id); err != nil {
			d.zonePop[rec.zone]++
			d.refreshZoneRTLocked(rec.zone)
			return err
		}
		delete(d.clients, id)
		return nil
	})
}

// Move relocates a client's avatar to another zone and re-attaches it,
// repairing around both affected zones.
func (d *Director) Move(id string, zone int) (ClientInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	rec, ok := d.clients[id]
	if !ok {
		return ClientInfo{}, fmt.Errorf("director: %w %q", ErrUnknownClient, id)
	}
	if zone < 0 || zone >= d.cfg.Zones {
		return ClientInfo{}, fmt.Errorf("director: zone %d outside [0,%d)", zone, d.cfg.Zones)
	}
	if err := d.commit(&repair.Event{Op: repair.OpDMove, ID: id, ZoneIdx: zone}, func() error {
		old := rec.zone
		if zone != old {
			// Bring both zones' bandwidth up to date before the event — the
			// vacated zone's members to the shrunk population's RT, the entered
			// zone's incumbents and the mover itself to the grown one's — so
			// Move's repair pass sees exact loads.
			d.zonePop[old]--
			d.zonePop[zone]++
			d.refreshZoneRTLocked(old)
			d.refreshZoneRTLocked(zone)
			_ = d.binding.SetRT(id, d.zoneClientRT(zone))
		}
		if err := d.binding.Move(id, zone); err != nil {
			if zone != old {
				d.zonePop[old]++
				d.zonePop[zone]--
				d.refreshZoneRTLocked(old)
				d.refreshZoneRTLocked(zone)
				_ = d.binding.SetRT(id, d.zoneClientRT(old))
			}
			return err
		}
		rec.zone = zone
		return nil
	}); err != nil {
		return ClientInfo{}, err
	}
	return d.infoLocked(id, rec), nil
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
	rec, ok := d.clients[id]
	if !ok {
		return ClientInfo{}, fmt.Errorf("director: %w %q", ErrUnknownClient, id)
	}
	if len(rtts) != len(d.cfg.ServerNodes) {
		return ClientInfo{}, fmt.Errorf("director: delay row has %d entries, want %d", len(rtts), len(d.cfg.ServerNodes))
	}
	for i, rtt := range rtts {
		if !repair.FiniteNonNeg(rtt) {
			return ClientInfo{}, fmt.Errorf("director: RTT to server %d is %v ms, want finite >= 0", i, rtt)
		}
	}
	if err := d.commit(&repair.Event{Op: repair.OpDDelays, ID: id, Row: rtts}, func() error {
		return d.binding.UpdateDelays(id, rtts)
	}); err != nil {
		return ClientInfo{}, err
	}
	return d.infoLocked(id, rec), nil
}

// zoneClientRT is the bandwidth requirement of one client of the zone at
// its current population (d.zonePop must already reflect it).
func (d *Director) zoneClientRT(zone int) float64 {
	pop := d.zonePop[zone]
	if pop == 0 {
		pop = 1
	}
	bytesPerSec := d.cfg.FrameRate * (d.cfg.MessageBytes + float64(pop)*d.cfg.MessageBytes)
	return bytesPerSec * 8 / 1e6
}

// refreshZoneRTLocked pushes the zone's population-dependent bandwidth into
// the planner after a membership change.
func (d *Director) refreshZoneRTLocked(zone int) {
	if d.zonePop[zone] <= 0 {
		return
	}
	_ = d.planner().RefreshZoneRT(zone, d.zoneClientRT(zone))
}

// Lookup returns a client's current assignment.
func (d *Director) Lookup(id string) (ClientInfo, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rec, ok := d.clients[id]
	if !ok {
		return ClientInfo{}, fmt.Errorf("director: %w %q", ErrUnknownClient, id)
	}
	return d.infoLocked(id, rec), nil
}

// infoLocked renders a record from the planner's maintained solution.
func (d *Director) infoLocked(id string, rec *clientRec) ClientInfo {
	contact, err := d.binding.Contact(id)
	if err != nil {
		// A live record always has a live handle; this is unreachable.
		contact = -1
	}
	delay, _ := d.binding.Delay(id)
	return ClientInfo{
		ID:      id,
		Node:    rec.node,
		Zone:    rec.zone,
		Contact: contact,
		Target:  d.planner().ZoneHost(rec.zone),
		DelayMs: delay,
		QoS:     delay <= d.cfg.DelayBoundMs,
	}
}

func (d *Director) clientServerRTT(node, server int) float64 {
	return d.cfg.Delays.RTT(node, d.cfg.ServerNodes[server])
}

func (d *Director) serverServerRTT(a, b int) float64 {
	return d.cfg.Delays.ServerRTT(d.cfg.ServerNodes[a], d.cfg.ServerNodes[b])
}

// problemLocked snapshots the current population as a core.Problem, with
// clients in registration order. Delay rows come from the planner's live
// state, so measured updates (UpdateDelays) are reflected rather than
// re-derived from the topology oracle.
func (d *Director) problemLocked() *core.Problem {
	order := d.binding.IDs()
	k := len(order)
	m := len(d.cfg.ServerNodes)
	pl := d.planner()
	live := pl.Problem()
	p := &core.Problem{
		ServerCaps:  append([]float64(nil), d.cfg.ServerCaps...),
		ClientZones: make([]int, k),
		NumZones:    d.cfg.Zones,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           d.cfg.DelayBoundMs,
		// The traffic objective exports with the problem, so offline
		// analysis prices the snapshot exactly as the live planner does.
		TrafficWeight: live.TrafficWeight,
	}
	if g := live.Adjacency; g != nil && g.NumEdges() > 0 {
		p.Adjacency = g.Clone()
	}
	pop := make([]int, d.cfg.Zones)
	for _, id := range order {
		pop[d.clients[id].zone]++
	}
	for j, id := range order {
		rec := d.clients[id]
		p.ClientZones[j] = rec.zone
		zp := pop[rec.zone]
		p.ClientRT[j] = d.cfg.FrameRate * (d.cfg.MessageBytes + float64(zp)*d.cfg.MessageBytes) * 8 / 1e6
		p.CS[j] = make([]float64, m)
		if h, err := d.binding.Handle(id); err == nil {
			if idx, err := pl.Index(h); err == nil {
				live.CopyCSRow(idx, p.CS[j])
				continue
			}
		}
		// A registered client always has a live handle; if that invariant
		// ever breaks, re-derive the row from the topology oracle rather
		// than exporting silent zeros (which would fake perfect QoS).
		for i := 0; i < m; i++ {
			p.CS[j][i] = d.clientServerRTT(rec.node, i)
		}
	}
	for i := 0; i < m; i++ {
		p.SS[i] = make([]float64, m)
		for l := 0; l < m; l++ {
			p.SS[i][l] = d.serverServerRTT(i, l)
		}
	}
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
	s := Stats{Clients: d.binding.Len(), Algorithm: d.algo.Name}
	s.Servers = len(d.cfg.ServerNodes)
	s.Zones = d.cfg.Zones
	for i := 0; i < s.Servers; i++ {
		if d.planner().Draining(i) {
			s.Draining++
		}
	}
	st := d.planner().Stats()
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
	s.TrafficCrossEdges, s.AdjacencyEdges = d.planner().CrossEdges()
	s.TrafficCutMbps = d.planner().TrafficCut()
	s.TrafficCost = d.planner().TrafficCost()
	s.TrafficWeight = d.planner().Problem().TrafficWeight
	if s.Clients == 0 {
		return s
	}
	s.WithQoS = d.planner().WithQoS()
	s.PQoS = d.planner().PQoS()
	s.Utilization = d.planner().Utilization()
	return s
}

func (d *Director) assignmentLocked() *core.Assignment {
	order := d.binding.IDs()
	a := &core.Assignment{
		ZoneServer:    d.planner().ZoneServers(),
		ClientContact: make([]int, len(order)),
	}
	for j, id := range order {
		a.ClientContact[j], _ = d.binding.Contact(id)
	}
	return a
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
	order := d.binding.IDs()
	if len(order) == 0 {
		// Nothing to solve — and nothing journaled, so empty reassigns
		// (e.g. a timer firing on an idle service) don't grow the log.
		return ReassignResult{Stats: d.statsLocked()}, nil
	}
	before := make([]int, len(order))
	for j, id := range order {
		before[j], _ = d.binding.Contact(id)
	}
	if err := d.commit(&repair.Event{Op: repair.OpResolve}, d.planner().FullSolve); err != nil {
		return ReassignResult{}, err
	}
	moved := 0
	for j, id := range order {
		if after, _ := d.binding.Contact(id); after != before[j] {
			moved++
		}
	}
	return ReassignResult{Stats: d.statsLocked(), Moved: moved}, nil
}

// ProblemSnapshot exports the live state as a core.Problem (clients in
// registration order), for offline analysis or exact solving.
func (d *Director) ProblemSnapshot() *core.Problem {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.problemLocked()
}

// Snapshot lists all clients in registration order.
func (d *Director) Snapshot() []ClientInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	order := d.binding.IDs()
	out := make([]ClientInfo, 0, len(order))
	for _, id := range order {
		out = append(out, d.infoLocked(id, d.clients[id]))
	}
	return out
}
