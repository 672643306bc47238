package director

// Durable directors (DESIGN.md §11). The write-ahead discipline — every
// mutation journaled (synced) BEFORE it is applied, snapshots that bound
// replay, recovery re-applying the log tail through the SAME mutators live
// traffic uses — is repair.Journal, the one engine the director shares with
// the public ClusterSession. This file holds only what is the director's
// own: its snapshot schema and render, the fingerprint checks and planner
// rebuild on recovery, and applyEvent, the replay switch.
//
// The director journals its OWN event vocabulary (the OpD* ops in
// internal/repair/event.go): joins carry the serving node and the
// materialized client ID, topology events carry dense indices, and the
// oracle-derived delay rows are NOT journaled — replay re-derives them
// from Config.Delays, which the recovering caller must supply unchanged
// (it is measurement infrastructure, not mutable service state).

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/interact"
	"dvecap/internal/repair"
	"dvecap/internal/xrand"
)

// ErrDirectorClosed reports a mutation on a durable director after Close.
var ErrDirectorClosed = errors.New("director: closed")

// dirSnapshotVersion tags the directorSnapshot schema; recovery reads
// versions 1..dirSnapshotVersion and rejects snapshots from a future
// schema rather than misreading them. v2 added the provider field
// (delay-model snapshots, DESIGN.md §13); v1 snapshots are dense and
// load unchanged.
const dirSnapshotVersion = 2

// dirClientJSON is one registered client in a snapshot, in the planner's
// dense order — recovery renumbers handles 0..k-1 in that order, so the
// list order re-ties each ID to its planner-side client.
type dirClientJSON struct {
	ID   string `json:"id"`
	Node int    `json:"node"`
	Zone int    `json:"zone"`
}

// directorSnapshot is one durable checkpoint of a Director: the service
// fingerprint (algorithm, bound, bandwidth model — recovery refuses a
// caller whose config disagrees), the live deployment (server nodes, the
// planner's exact problem), the client registry and the planner sidecar.
// The delay oracle itself is NOT stored; the recovering caller supplies
// it via Config.Delays and is responsible for it being the same matrix.
type directorSnapshot struct {
	Version         int             `json:"version"`
	LSN             uint64          `json:"lsn"`
	Algorithm       string          `json:"algorithm"`
	DelayBoundMs    float64         `json:"delay_bound_ms"`
	FrameRate       float64         `json:"frame_rate"`
	MessageBytes    float64         `json:"message_bytes"`
	DriftPQoS       float64         `json:"drift_pqos,omitempty"`
	DriftUtilSpread float64         `json:"drift_util_spread,omitempty"`
	Seq             uint64          `json:"seq"`
	ServerNodes     []int           `json:"server_nodes"`
	Clients         []dirClientJSON `json:"clients"`
	Problem         *core.Problem   `json:"problem"`
	// Provider carries the delay provider's typed state when the director
	// runs a non-dense delay model (core.Problem.Delays is excluded from
	// JSON); recovery reattaches it to Problem before rebuilding the
	// planner. Nil for dense directors and all v1 snapshots.
	Provider *core.ProviderState `json:"provider,omitempty"`
	// Adjacency carries the zone-interaction graph's typed state
	// (core.Problem.Adjacency is likewise excluded from JSON); recovery
	// reattaches it before rebuilding the planner, so the maintained
	// traffic cut resumes bit-identical. Nil while no edge is installed —
	// which keeps pre-traffic snapshots byte-identical.
	Adjacency *interact.State `json:"adjacency,omitempty"`
	Planner   *repair.State   `json:"planner"`
}

// Durable reports whether the director journals to a data directory.
func (d *Director) Durable() bool { return d.dur != nil }

// Recovering reports whether the director is still replaying its journal.
// The HTTP handler answers 503 with Retry-After while this is true, so a
// server that binds its listener before recovery finishes sheds traffic
// instead of serving half-replayed state.
func (d *Director) Recovering() bool { return d.recovering.Load() }

// journalConfig is what the director hands its durability engine.
func (c Config) journalConfig() repair.JournalConfig {
	return repair.JournalConfig{
		Dir:           c.DataDir,
		SnapshotEvery: c.SnapshotEvery,
		Telemetry:     c.Telemetry,
		ErrClosed:     ErrDirectorClosed,
	}
}

// The write path: every journaled mutator runs these steps, in this order,
// with the write sequencer (wmu) held throughout and the state lock (mu)
// write-held for the apply step alone.

// journal appends e to the log and syncs it, BEFORE e is applied. It runs
// under wmu only: readers are not behind the fsync.
func (d *Director) journal(e *repair.Event) error {
	start := d.stages.journal.begin()
	err := d.dur.Append(e)
	d.stages.journal.end(start)
	return err
}

// apply runs fn — the in-memory step of a mutation — with the state lock
// write-held: the only stretch of a write during which a reader can block.
func (d *Director) apply(fn func() error) error {
	start := d.stages.apply.begin()
	d.mu.Lock()
	err := fn()
	d.mu.Unlock()
	d.stages.apply.end(start)
	return err
}

// afterApply runs the durable bookkeeping once an event has been applied
// (epoch marker, checkpoint cadence) and takes the auto-checkpoint when the
// engine reports one due.
func (d *Director) afterApply() error {
	if due, err := d.dur.Applied(); err != nil || !due {
		return err
	}
	_, err := d.checkpoint()
	return err
}

// commit is journal → apply → afterApply for an already validated event. An
// event the apply rejects stays journaled (replay re-rejects it) and skips
// the bookkeeping.
func (d *Director) commit(e *repair.Event, apply func() error) error {
	if err := d.journal(e); err != nil {
		return err
	}
	if err := d.apply(apply); err != nil {
		return err
	}
	return d.afterApply()
}

// snapshotPayloadLocked renders the director's full durable state as of
// lsn. The caller holds wmu (or is the sole owner, in New), which freezes the
// state; readers carry on under mu.RLock while it renders.
func (d *Director) snapshotPayloadLocked(lsn uint64) ([]byte, error) {
	pl := d.planner()
	live := pl.Problem()
	clients := make([]dirClientJSON, pl.NumClients())
	for _, id := range d.binding.IDs() {
		j, err := d.denseIndexLocked(id)
		if err != nil {
			return nil, err
		}
		rec := d.clients[id]
		clients[j] = dirClientJSON{ID: id, Node: rec.node, Zone: rec.zone}
	}
	st, err := pl.ExportState()
	if err != nil {
		return nil, err
	}
	var prov *core.ProviderState
	if live.Delays != nil {
		prov = live.Delays.State()
	}
	var adj *interact.State
	if g := live.Adjacency; g != nil && g.NumEdges() > 0 {
		adj = g.State()
	}
	return json.Marshal(directorSnapshot{
		Version:         dirSnapshotVersion,
		LSN:             lsn,
		Algorithm:       d.algo.Name,
		DelayBoundMs:    d.cfg.DelayBoundMs,
		FrameRate:       d.cfg.FrameRate,
		MessageBytes:    d.cfg.MessageBytes,
		DriftPQoS:       d.cfg.DriftPQoS,
		DriftUtilSpread: d.cfg.DriftUtilSpread,
		Seq:             d.seq,
		ServerNodes:     append([]int(nil), d.cfg.ServerNodes...),
		Clients:         clients,
		Problem:         live,
		Provider:        prov,
		Adjacency:       adj,
		Planner:         st,
	})
}

// checkpoint renders and writes a snapshot under wmu alone.
func (d *Director) checkpoint() (uint64, error) {
	start := d.stages.checkpoint.begin()
	lsn, err := d.dur.Checkpoint(d.snapshotPayloadLocked)
	d.stages.checkpoint.end(start)
	if err == nil && d.dur != nil {
		d.log.Debug("checkpoint written", "lsn", lsn)
	}
	return lsn, err
}

// Checkpoint writes a snapshot of the director's current state, truncates
// the log segments it supersedes, and returns the snapshot's LSN —
// bounding the next recovery's replay to events journaled after this
// call. A no-op (0, nil) on non-durable directors. Auto-checkpointing
// (Config.SnapshotEvery) calls this; POST /v1/checkpoint and the graceful
// shutdown path call it explicitly — checkpoint, then drain, then stop,
// so a restart replays nothing. Writers queue behind a checkpoint; readers
// do not.
func (d *Director) Checkpoint() (uint64, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.checkpoint()
}

// Close checkpoints a durable director and releases its log. Further
// mutations fail with ErrDirectorClosed; read paths keep working. A no-op
// on non-durable directors and on second call.
func (d *Director) Close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.dur.Close(d.snapshotPayloadLocked)
}

// SetCrashHook installs the fault-injection hook consulted at the journal's
// named crash points. Like DurableState it exists for the kill/recover proof
// suite (package dvecap's durability_test.go), which drives this surface and
// ClusterSession through one harness.
func (d *Director) SetCrashHook(hook func(point string) error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.dur.SetCrashHook(hook)
}

// DurableState renders the payload a checkpoint at the log's origin would
// write — everything a placement decision depends on — so the proof suite
// can compare two directors byte for byte.
func (d *Director) DurableState() ([]byte, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.snapshotPayloadLocked(0)
}

// recoverDirector rebuilds a director from the newest readable snapshot
// in cfg.DataDir plus the log tail after it. The stored deployment wins
// over the caller's: ServerNodes, ServerCaps, Zones and the guard
// thresholds come from the snapshot, and the service fingerprint
// (algorithm, delay bound, bandwidth model) must match the caller's
// config exactly — a recovering operator may change only the worker
// count (results are worker-invariant, DESIGN.md §8), the checkpoint
// cadence and the delay oracle's backing store (which must still be the
// same matrix; server and client nodes are bounds-checked against it).
func recoverDirector(cfg Config) (*Director, error) {
	dir := cfg.DataDir
	snap, err := repair.LoadSnapshot(dir, dirSnapshotVersion, func(c *directorSnapshot) (int, uint64) { return c.Version, c.LSN })
	if err != nil {
		return nil, err
	}
	if snap.Algorithm != cfg.Algorithm {
		return nil, fmt.Errorf("director: stored state in %s uses algorithm %q, not %q", dir, snap.Algorithm, cfg.Algorithm)
	}
	if snap.DelayBoundMs != cfg.DelayBoundMs || snap.FrameRate != cfg.FrameRate || snap.MessageBytes != cfg.MessageBytes {
		return nil, fmt.Errorf("director: stored state in %s has fingerprint D=%v/fr=%v/mb=%v, caller asks D=%v/fr=%v/mb=%v",
			dir, snap.DelayBoundMs, snap.FrameRate, snap.MessageBytes,
			cfg.DelayBoundMs, cfg.FrameRate, cfg.MessageBytes)
	}
	algo, ok := core.ByName(snap.Algorithm)
	if !ok {
		return nil, fmt.Errorf("director: stored state uses unknown algorithm %q", snap.Algorithm)
	}
	if snap.Problem == nil || snap.Planner == nil {
		return nil, fmt.Errorf("director: snapshot in %s misses problem or planner state", dir)
	}
	// The delay model travels with the stored state: Problem.Delays is
	// excluded from JSON, so reattach the provider from its typed state.
	// Like the rest of the deployment, the stored model supersedes the
	// caller's DelayModel.
	cfg.DelayModel = "dense"
	if snap.Provider != nil {
		dp, err := core.NewProviderFromState(snap.Provider)
		if err != nil {
			return nil, fmt.Errorf("director: snapshot in %s: %w", dir, err)
		}
		snap.Problem.CS = nil
		snap.Problem.Delays = dp
		cfg.DelayModel = snap.Provider.Kind
	}
	// The interaction graph travels the same way: excluded from the
	// problem's JSON, reattached from its typed state. Stored traffic
	// configuration supersedes the caller's, like the rest of the problem.
	if snap.Adjacency != nil {
		g, err := interact.FromState(snap.Adjacency)
		if err != nil {
			return nil, fmt.Errorf("director: snapshot in %s: %w", dir, err)
		}
		if g.NumZones() != snap.Problem.NumZones {
			return nil, fmt.Errorf("director: snapshot adjacency covers %d zones for a %d-zone problem", g.NumZones(), snap.Problem.NumZones)
		}
		snap.Problem.Adjacency = g
	}
	cfg.TrafficWeight = snap.Problem.TrafficWeight
	if len(snap.ServerNodes) != len(snap.Problem.ServerCaps) {
		return nil, fmt.Errorf("director: snapshot has %d server nodes for %d capacities", len(snap.ServerNodes), len(snap.Problem.ServerCaps))
	}
	cfg.ServerNodes = append([]int(nil), snap.ServerNodes...)
	cfg.ServerCaps = append([]float64(nil), snap.Problem.ServerCaps...)
	cfg.Zones = snap.Problem.NumZones
	cfg.DriftPQoS = snap.DriftPQoS
	cfg.DriftUtilSpread = snap.DriftUtilSpread
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if got, want := len(snap.Clients), snap.Problem.NumClients(); got != want {
		return nil, fmt.Errorf("director: snapshot lists %d clients for a %d-client problem", got, want)
	}
	d := &Director{
		cfg:     cfg,
		algo:    algo,
		clients: make(map[string]*clientRec, len(snap.Clients)),
		rng:     xrand.New(cfg.Seed),
		zonePop: make([]int, cfg.Zones),
		csBuf:   make([]float64, len(cfg.ServerNodes)),
		seq:     snap.Seq,
		log:     cfg.logger(),
		tele:    cfg.Telemetry,
		trace:   cfg.Trace,
	}
	ids := make([]string, len(snap.Clients))
	for j, cl := range snap.Clients {
		if _, dup := d.clients[cl.ID]; dup {
			return nil, fmt.Errorf("director: snapshot lists client %q twice", cl.ID)
		}
		if cl.Node < 0 || cl.Node >= cfg.Delays.N() {
			return nil, fmt.Errorf("director: snapshot client %q on node %d outside delay matrix (%d nodes)", cl.ID, cl.Node, cfg.Delays.N())
		}
		if cl.Zone < 0 || cl.Zone >= cfg.Zones {
			return nil, fmt.Errorf("director: snapshot client %q in zone %d outside [0,%d)", cl.ID, cl.Zone, cfg.Zones)
		}
		d.clients[cl.ID] = &clientRec{node: cl.Node, zone: cl.Zone}
		d.zonePop[cl.Zone]++
		ids[j] = cl.ID
	}
	pl, err := repair.NewFromState(repair.Config{
		Algo:            algo,
		Opt:             core.Options{Overflow: core.SpillLargestResidual, Workers: cfg.Workers},
		DriftPQoS:       snap.DriftPQoS,
		DriftUtilSpread: snap.DriftUtilSpread,
	}, snap.Problem, snap.Planner)
	if err != nil {
		return nil, err
	}
	d.binding, err = repair.NewIDBinding(pl, ids)
	if err != nil {
		return nil, err
	}
	d.dur = repair.RecoverJournal(cfg.journalConfig(), pl, snap.LSN)
	d.recovering.Store(true)
	defer d.recovering.Store(false)
	recStart := time.Now()
	replayed, err := d.dur.Replay(d.applyEvent)
	if err != nil {
		return nil, err
	}
	// Like the planner's series, the write stages attach only after the tail
	// has replayed, so they count live traffic.
	d.stages = newWriteStages(cfg.Telemetry, true)
	d.log.Info("recovered from journal",
		"dir", dir, "snapshot_lsn", snap.LSN, "events_replayed", replayed,
		"clients", d.binding.Len(), "replay", time.Since(recStart))
	return d, nil
}

// applyEvent replays one journaled event through the live mutator it was
// journaled from (the methods take the locks themselves; replay runs
// before the director is shared). Apply-level rejections are swallowed —
// the live path journals before applying, so a rejected event is in the
// log too and rejects again here, deterministically. Only an unknown op
// aborts recovery here; the engine checks the epoch markers itself.
func (d *Director) applyEvent(e *repair.Event) error {
	switch e.Op {
	case repair.OpDJoin:
		// The live path materializes auto IDs (seq++) before journaling;
		// replay re-advances the sequence so post-recovery auto IDs
		// continue where the pre-crash director left off.
		if e.Auto {
			d.mu.Lock()
			d.seq++
			d.mu.Unlock()
		}
		_, _ = d.Join(e.ID, e.Node, e.ZoneIdx)
	case repair.OpDLeave:
		_ = d.Leave(e.ID)
	case repair.OpDMove:
		_, _ = d.Move(e.ID, e.ZoneIdx)
	case repair.OpDDelays:
		_, _ = d.UpdateDelays(e.ID, e.Row)
	case repair.OpDAddServer:
		if e.Spare {
			_, _ = d.AddSpareServer(e.Node, e.Capacity)
		} else {
			_, _ = d.AddServer(e.Node, e.Capacity)
		}
	case repair.OpDRemoveServer:
		_ = d.RemoveServer(e.ServerIdx)
	case repair.OpDDrain:
		_, _ = d.DrainServer(e.ServerIdx)
	case repair.OpDUncordon:
		_, _ = d.UncordonServer(e.ServerIdx)
	case repair.OpDAddZone:
		_, _ = d.AddZone()
	case repair.OpDRetireZone:
		_ = d.RetireZone(e.ZoneIdx)
	case repair.OpDSetAdjacency:
		_, _ = d.SetAdjacency(e.ZoneIdx, e.ZoneIdx2, e.Weight)
	case repair.OpDAddAdjacency:
		_, _ = d.AddAdjacencyWeight(e.ZoneIdx, e.ZoneIdx2, e.Weight)
	case repair.OpResolve:
		_, _ = d.Reassign()
	default:
		return fmt.Errorf("unknown journal op %q", e.Op)
	}
	return nil
}
