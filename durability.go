package dvecap

// Durable sessions (DESIGN.md §11). The write-ahead discipline — journal
// before apply, snapshots that bound replay, recovery through the live
// mutators — is repair.Journal, the one engine this surface shares with
// internal/director. This file holds only what is the session's own: its
// snapshot schema and render, the fingerprint check and planner rebuild on
// recovery, and applyEvent, the replay switch over the session's Op*
// vocabulary.

import (
	"encoding/json"
	"errors"
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/interact"
	"dvecap/internal/repair"
	"dvecap/telemetry"
)

// ErrSessionClosed reports an event on a durable session after Close.
var ErrSessionClosed = errors.New("dvecap: session closed")

// snapshotVersion tags the sessionSnapshot schema; recovery rejects
// snapshots from a future schema rather than misreading them, and
// still reads every older version. Version 2 added the delay-provider
// state (version-1 snapshots are always dense and carry per-client
// rows instead).
const snapshotVersion = 2

// sessionSnapshot is one durable checkpoint of a ClusterSession: the full
// cluster spec (the normalized WriteClusterJSON form), the planner sidecar
// (assignment, evaluator accumulators, guard counters, RNG position) and
// the trajectory-shaping config. Everything a placement decision depends
// on is in here; knobs that only affect throughput (worker count) or
// durability housekeeping (checkpoint cadence) stay with the caller.
type sessionSnapshot struct {
	Version         int            `json:"version"`
	LSN             uint64         `json:"lsn"`
	Algo            string         `json:"algo"`
	Overflow        OverflowPolicy `json:"overflow"`
	DriftPQoS       float64        `json:"drift_pqos,omitempty"`
	DriftUtilSpread float64        `json:"drift_util_spread,omitempty"`
	Cluster         clusterJSON    `json:"cluster"`
	Planner         *repair.State  `json:"planner"`
	// Provider is the delay-provider state of sessions opened under a
	// non-dense WithDelayProvider model (snapshot version >= 2). When set,
	// the cluster's clients carry no rtt_row_ms — the provider state IS
	// the delay store, and recovery reconstructs it bit-identically.
	Provider *core.ProviderState `json:"provider,omitempty"`
}

// journalConfig is what the session hands its durability engine.
func (cfg config) journalConfig() repair.JournalConfig {
	return repair.JournalConfig{
		Dir:           cfg.durDir,
		SnapshotEvery: cfg.snapEvery,
		Telemetry:     cfg.tele,
		ErrClosed:     ErrSessionClosed,
	}
}

// afterApply runs the durable bookkeeping once an event has been applied
// (epoch marker, checkpoint cadence) and takes the auto-checkpoint when the
// engine reports one due.
func (s *ClusterSession) afterApply() error {
	if due, err := s.dur.Applied(); err != nil || !due {
		return err
	}
	return s.Checkpoint()
}

// snapshotPayload renders the session's full durable state as of lsn.
func (s *ClusterSession) snapshotPayload(lsn uint64) ([]byte, error) {
	pl := s.planner()
	p := pl.Problem()
	m := p.NumServers()
	cj := clusterJSON{
		DelayBoundMs: p.D,
		Servers:      make([]serverJSON, m),
		ServerRTTsMs: p.SS,
		Zones:        append([]string(nil), s.binding.ZoneNames()...),
		Clients:      make([]clientJSON, p.NumClients()),
	}
	for i, id := range s.binding.ServerNames() {
		cj.Servers[i] = serverJSON{ID: id, CapacityMbps: p.ServerCaps[i]}
	}
	// Dense client order IS the planner's problem order; the snapshot's
	// client list must follow it so NewFromState's renumbering (handles
	// 0..k-1 in dense order) re-ties the same IDs to the same clients.
	for _, id := range s.binding.IDs() {
		h, err := s.binding.Handle(id)
		if err != nil {
			return nil, err
		}
		j, err := pl.Index(h)
		if err != nil {
			return nil, err
		}
		cj.Clients[j] = clientJSON{
			ID:            id,
			Zone:          s.binding.ZoneID(p.ClientZones[j]),
			BandwidthMbps: p.ClientRT[j],
		}
		if p.Delays == nil {
			cj.Clients[j].RTTRowMs = p.CS[j]
		}
	}
	cj.ZoneAdjacency = adjacencyFromGraph(p.Adjacency, cj.Zones)
	cj.TrafficWeight = p.TrafficWeight
	// Provider-backed sessions serialise the provider's own state instead
	// of per-client dense rows: smaller, and — crucially — recovery
	// restores the provider's INTERNALS (coordinates, override lists, row
	// sharing) bit-identically, not just the delays it would report.
	var prov *core.ProviderState
	if p.Delays != nil {
		prov = p.Delays.State()
	}
	st, err := pl.ExportState()
	if err != nil {
		return nil, err
	}
	return json.Marshal(sessionSnapshot{
		Version:         snapshotVersion,
		LSN:             lsn,
		Algo:            s.algo,
		Overflow:        s.overflow,
		DriftPQoS:       s.driftPQoS,
		DriftUtilSpread: s.driftSpread,
		Cluster:         cj,
		Planner:         st,
		Provider:        prov,
	})
}

// Checkpoint writes a snapshot of the session's current state and
// truncates the log segments it supersedes, bounding the next recovery's
// replay to events journaled after this call. A no-op on non-durable
// sessions. Auto-checkpointing (WithSnapshotEvery) calls this; call it
// explicitly before planned downtime — e.g. checkpoint, then drain, then
// stop, so a restart replays nothing.
func (s *ClusterSession) Checkpoint() (err error) {
	if s.dur == nil {
		return nil
	}
	defer s.span("checkpoint")(&err)
	_, err = s.dur.Checkpoint(s.snapshotPayload)
	return err
}

// Close checkpoints a durable session and releases its log. Further events
// fail with ErrSessionClosed; read paths keep working. A no-op on
// non-durable sessions and on second call.
func (s *ClusterSession) Close() error { return s.dur.Close(s.snapshotPayload) }

// openDurable is Open's durable branch: recover when dir already holds
// state, otherwise solve fresh and establish the baseline snapshot before
// the first log segment exists — a crash between the two leaves either
// nothing (next Open solves fresh again) or a snapshot-only directory
// (next Open recovers from it with an empty tail). There is no window
// where a log exists without a snapshot under it.
func (c *Cluster) openDurable(algorithm string, cfg config) (*ClusterSession, error) {
	has, err := repair.JournalExists(cfg.durDir)
	if err != nil {
		return nil, err
	}
	if has {
		return recoverSession(algorithm, cfg)
	}
	s, err := c.openSession(algorithm, cfg)
	if err != nil {
		return nil, err
	}
	s.dur, err = repair.CreateJournal(cfg.journalConfig(), s.planner(), s.snapshotPayload)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// recoverSession rebuilds a session from the newest readable snapshot plus
// the log tail after it, replayed through the SAME mutators live traffic
// uses. The stored trajectory-shaping config (algorithm must match what
// the caller asked for; overflow policy and guard thresholds are adopted
// from the snapshot) wins over the caller's options — only the worker
// count is taken from the caller, since results are worker-invariant
// (DESIGN.md §8).
func recoverSession(algorithm string, cfg config) (*ClusterSession, error) {
	dir := cfg.durDir
	snap, err := repair.LoadSnapshot(dir, snapshotVersion, func(c *sessionSnapshot) (int, uint64) { return c.Version, c.LSN })
	if err != nil {
		return nil, err
	}
	if snap.Algo != algorithm {
		return nil, fmt.Errorf("dvecap: stored session in %s uses algorithm %q, not %q", dir, snap.Algo, algorithm)
	}
	tp, ok := core.ByName(snap.Algo)
	if !ok {
		return nil, fmt.Errorf("dvecap: stored session uses unknown algorithm %q", snap.Algo)
	}
	var p *core.Problem
	if snap.Provider != nil {
		p, err = problemFromProviderSnapshot(&snap.Cluster, snap.Provider)
		if err != nil {
			return nil, fmt.Errorf("dvecap: snapshot cluster: %w", err)
		}
	} else {
		rc, err := clusterFromJSON(&snap.Cluster)
		if err != nil {
			return nil, fmt.Errorf("dvecap: snapshot cluster: %w", err)
		}
		p, err = rc.problem()
		if err != nil {
			return nil, err
		}
	}
	ocfg := cfg
	ocfg.overflow = snap.Overflow
	opt, err := ocfg.coreOptions()
	if err != nil {
		return nil, err
	}
	pl, err := repair.NewFromState(repair.Config{
		Algo:            tp,
		Opt:             opt,
		DriftPQoS:       snap.DriftPQoS,
		DriftUtilSpread: snap.DriftUtilSpread,
	}, p, snap.Planner)
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
	binding, err := repair.RestoreIDBinding(pl, ids, serverIDs, snap.Cluster.Zones)
	if err != nil {
		return nil, err
	}
	s := &ClusterSession{
		binding:     binding,
		algo:        snap.Algo,
		delayBound:  p.D,
		rowBuf:      make([]float64, p.NumServers()),
		overflow:    snap.Overflow,
		driftPQoS:   snap.DriftPQoS,
		driftSpread: snap.DriftUtilSpread,
	}
	s.dur = repair.RecoverJournal(cfg.journalConfig(), pl, snap.LSN)
	if _, err := s.dur.Replay(s.applyEvent); err != nil {
		return nil, err
	}
	// The trace log, like the planner's telemetry, attaches only now, with
	// the tail replayed: a restart does not re-trace pre-crash events.
	s.tracer = telemetry.NewTracer(cfg.traceW)
	return s, nil
}

// problemFromProviderSnapshot rebuilds a provider-backed session's problem
// directly from the snapshot: topology and population from the cluster
// spec, delays from the serialized provider state (reconstructed
// bit-identically by core.NewProviderFromState). The dense builder path is
// bypassed — provider snapshots carry no per-client rows to feed it.
func problemFromProviderSnapshot(cj *clusterJSON, st *core.ProviderState) (*core.Problem, error) {
	dp, err := core.NewProviderFromState(st)
	if err != nil {
		return nil, err
	}
	zoneIdx := make(map[string]int, len(cj.Zones))
	for z, id := range cj.Zones {
		zoneIdx[id] = z
	}
	k := len(cj.Clients)
	p := &core.Problem{
		ServerCaps:  make([]float64, len(cj.Servers)),
		ClientZones: make([]int, k),
		NumZones:    len(cj.Zones),
		ClientRT:    make([]float64, k),
		SS:          cj.ServerRTTsMs,
		D:           cj.DelayBoundMs,
		Delays:      dp,
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
	}
	if err := attachAdjacencyJSON(p, cj.ZoneAdjacency, zoneIdx); err != nil {
		return nil, err
	}
	p.TrafficWeight = cj.TrafficWeight
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// attachAdjacencyJSON rebuilds a snapshot's interaction graph onto p.
func attachAdjacencyJSON(p *core.Problem, edges []adjacencyJSON, zoneIdx map[string]int) error {
	if len(edges) == 0 {
		return nil
	}
	g := interact.New(p.NumZones)
	for _, e := range edges {
		a, ok := zoneIdx[e.Zone1]
		if !ok {
			return fmt.Errorf("adjacency: unknown zone %q", e.Zone1)
		}
		b, ok := zoneIdx[e.Zone2]
		if !ok {
			return fmt.Errorf("adjacency: unknown zone %q", e.Zone2)
		}
		if _, err := g.Set(a, b, e.WeightMbps); err != nil {
			return fmt.Errorf("adjacency (%q,%q): %w", e.Zone1, e.Zone2, err)
		}
	}
	p.Adjacency = g
	return nil
}

// applyEvent replays one journaled event through the live mutator it was
// journaled from. Apply-level rejections are swallowed: the live path
// journals before applying, so an event the apply then rejected is in the
// log too — and rejects again here, deterministically, changing nothing.
// Only an unknown op is an error here (the engine checks the epoch markers
// itself): it means the log and this build disagree about what the events
// MEAN, and continuing would silently diverge from the pre-crash trajectory.
func (s *ClusterSession) applyEvent(e *repair.Event) error {
	switch e.Op {
	case repair.OpJoin:
		_ = s.Join(e.ID, ClientSpec{Zone: e.Zone, BandwidthMbps: e.RT, RTTRow: e.Row})
	case repair.OpJoinBatch:
		joins := make([]ClientJoin, len(e.IDs))
		for x := range e.IDs {
			joins[x] = ClientJoin{ID: e.IDs[x], Spec: ClientSpec{
				Zone:          e.Zones[x],
				BandwidthMbps: e.RTs[x],
				RTTRow:        e.Rows[x],
			}}
		}
		_ = s.JoinBatch(joins)
	case repair.OpLeave:
		_ = s.Leave(e.ID)
	case repair.OpLeaveBatch:
		_ = s.LeaveBatch(e.IDs)
	case repair.OpMove:
		_ = s.Move(e.ID, e.Zone)
	case repair.OpMoveBatch:
		_ = s.MoveBatch(e.IDs, e.Zones)
	case repair.OpDelayRow:
		_ = s.UpdateDelayRow(e.ID, e.Row)
	case repair.OpServerDelays:
		_ = s.UpdateServerDelays(e.Server, e.RTTs)
	case repair.OpSetBandwidth:
		_ = s.SetBandwidth(e.ID, e.RT)
	case repair.OpSetZoneBW:
		_ = s.SetZoneBandwidth(e.Zone, e.RT)
	case repair.OpAddServer:
		// The journaled Row is the resolved inter-server row in the server
		// order AT THE EVENT'S LSN — which is exactly the current order
		// during replay. Rebuild the map form AddServer takes.
		rtts := make(map[string]float64, len(e.Row))
		for i, sid := range s.binding.ServerNames() {
			if i < len(e.Row) {
				rtts[sid] = e.Row[i]
			}
		}
		// e.Spare routes the replay through the warm-spare registration, so
		// a recovered pool server is still cordoned.
		add := s.AddServer
		if e.Spare {
			add = s.AddSpareServer
		}
		_ = add(e.Server, ServerSpec{
			CapacityMbps: e.Capacity,
			RTTs:         rtts,
			ClientRTTs:   e.ClientRTTs,
		})
	case repair.OpRemoveServer:
		_ = s.RemoveServer(e.Server)
	case repair.OpDrainServer:
		_ = s.DrainServer(e.Server)
	case repair.OpUncordon:
		_ = s.UncordonServer(e.Server)
	case repair.OpAddZone:
		// Adjacency seeds are NOT re-attached here: the live AddZone journals
		// each seed edge as its own set_adj event, which replays next.
		_ = s.AddZone(e.Zone, ZoneSpec{Host: e.Host})
	case repair.OpSetAdjacency:
		_ = s.SetZoneAdjacency(e.Zone, e.Zone2, e.Weight)
	case repair.OpAddAdjacency:
		_ = s.AddAdjacencyWeight(e.Zone, e.Zone2, e.Weight)
	case repair.OpRetireZone:
		_ = s.RetireZone(e.Zone)
	case repair.OpResolve:
		_ = s.Resolve()
	default:
		return fmt.Errorf("unknown journal op %q", e.Op)
	}
	return nil
}
