package dvecap

import (
	"fmt"
	"sort"

	"dvecap/internal/core"
	"dvecap/internal/repair"
	"dvecap/telemetry"
)

// UnmeasuredRTTMs is the delay assigned to a (client, server) pair no
// measurement has covered yet — far beyond any interactivity bound, so an
// unmeasured path is never chosen while a measured one exists. It appears
// when ClusterSession.AddServer admits a server whose spec.ClientRTTs does
// not cover every current client; UpdateServerDelays (or per-client
// UpdateDelays) replaces it as probes complete. Sessions opened under a
// sparse delay model (WithDelayProvider) substitute the model's prediction
// instead of this sentinel.
const UnmeasuredRTTMs = core.UnmeasuredDelayMs

// ClusterSession is the churn-time surface of a Cluster: the solution from
// Open is kept repaired in O(affected) per event through the churn-repair
// subsystem, with clients, servers and zones all addressed by string ID.
// Beyond client churn (Join/Leave/Move/UpdateDelays), the TOPOLOGY itself
// is live: AddServer grows capacity under load, DrainServer evacuates a
// server for a rolling deploy (RemoveServer retires it, UncordonServer
// returns it), and AddZone/RetireZone grow and shrink the virtual world —
// every event in O(affected), never a stop-the-world re-solve (DESIGN.md
// §10). Every verb below resolves its spec against the current topology
// into one canonical repair.Event and commits it to the session's
// repair.Machine — journal, interpret, checkpoint cadence (DESIGN.md §11); a
// session opened WithDurability differs only in that the machine has a
// journal. A session is not safe for concurrent use (the director service
// fronts the same machine with locking for that).
type ClusterSession struct {
	m *repair.Machine
	// binding is m's ID binding — the read side, and what specs resolve
	// against.
	binding *repair.IDBinding
	rowBuf  []float64

	// tracer streams one JSON line per mutation when the session was opened
	// WithTraceLog; nil otherwise. On recovered sessions it attaches only
	// AFTER the log tail has replayed, so a restart does not re-trace
	// pre-crash events.
	tracer *telemetry.Tracer
}

// span opens a trace span around one session mutation. Defer the returned
// finish with a pointer to the named error result — `defer s.span(...)(&err)`
// evaluates span (sampling the start time) and &err immediately but runs
// the finish at return, emitting the event with the final outcome. On
// sessions without a trace log both halves are no-ops.
func (s *ClusterSession) span(op string, attrs ...any) func(*error) {
	if s.tracer == nil {
		return nopFinish
	}
	finish := s.tracer.Span(op, attrs...)
	return func(errp *error) { finish(*errp) }
}

// nopFinish is the shared finish for untraced sessions — one allocation
// for the whole package instead of one per call.
var nopFinish = func(*error) {}

// ClusterClient is the externally visible state of one session client.
type ClusterClient struct {
	// ID is the client's cluster ID.
	ID string
	// Zone is the ID of the zone the client's avatar is in.
	Zone string
	// Contact is the ID of the server the client connects to; Target the
	// ID of the server hosting its zone (they differ when the contact
	// forwards).
	Contact, Target string
	// DelayMs is the client's current effective delay; QoS reports whether
	// it is within the bound.
	DelayMs float64
	QoS     bool
	// BandwidthMbps is the client's current bandwidth requirement.
	BandwidthMbps float64
}

// ClientJoin names one client of a JoinBatch.
type ClientJoin struct {
	// ID is the client's cluster ID (unique, non-empty).
	ID string
	// Spec is the client's zone, bandwidth and measured RTTs, exactly as
	// a single Join takes it.
	Spec ClientSpec
}

// ZoneSpec describes a zone added to a live session.
type ZoneSpec struct {
	// Host optionally pins the new zone's initial hosting server by ID.
	// Empty auto-places on the least-loaded available server; later churn
	// rehosts the zone freely either way.
	Host string
	// Adjacency optionally seeds the new zone's interaction edges: existing
	// zone ID → edge weight (Mbps, finite > 0). Each entry is applied as a
	// SetZoneAdjacency right after the zone is added, in ascending zone-ID
	// order. The whole spec is validated before anything is applied.
	Adjacency map[string]float64
}

// ServerStatus is one row of the session's server inventory.
type ServerStatus struct {
	// ID is the server's cluster ID.
	ID string
	// CapacityMbps is the server's nominal bandwidth capacity. While the
	// server drains, that capacity is out of the fleet — nothing new is
	// placed on the server and Utilization's denominator shrinks by it —
	// until UncordonServer returns it.
	CapacityMbps float64
	// LoadMbps is the server's current bandwidth load.
	LoadMbps float64
	// Zones is the number of zones the server currently hosts.
	Zones int
	// Draining reports an in-flight drain: the server is evacuated and
	// cordoned, awaiting RemoveServer or UncordonServer.
	Draining bool
}

// planner exposes the underlying repair planner to the package's own code
// and tests.
func (s *ClusterSession) planner() *repair.Planner { return s.binding.Planner() }

// zone resolves a zone ID.
func (s *ClusterSession) zone(id string) (int, error) { return s.binding.ZoneIndex(id) }

// NumClients returns the current population.
func (s *ClusterSession) NumClients() int { return s.binding.Len() }

// NumServers returns the current server count.
func (s *ClusterSession) NumServers() int { return s.planner().NumServers() }

// NumZones returns the current zone count.
func (s *ClusterSession) NumZones() int { return s.planner().NumZones() }

// ClientIDs returns the client IDs in dense index order — the order of
// Result.ClientIDs and of the delay rows a snapshot carries. A leave
// renumbers the last client into the vacated index; the order is identical
// before and after recovery.
func (s *ClusterSession) ClientIDs() []string { return s.binding.DenseIDs() }

// ServerIDs returns the server IDs in dense index order. Removing a
// server renumbers: the last server takes the removed one's index.
func (s *ClusterSession) ServerIDs() []string {
	return append([]string(nil), s.binding.ServerNames()...)
}

// ZoneIDs returns the zone IDs in dense index order. Retiring a zone
// renumbers: the last zone takes the retired one's index.
func (s *ClusterSession) ZoneIDs() []string {
	return append([]string(nil), s.binding.ZoneNames()...)
}

// Join admits a new client by ID: it is attached greedily (directly to its
// zone's host when within the bound, otherwise through the feasible
// contact minimising its effective delay) and a localized repair pass runs
// around the zone it entered. The spec's zone must be one of the cluster's
// zones; its RTTs must cover every server.
func (s *ClusterSession) Join(id string, spec ClientSpec) (err error) {
	defer s.span("join", "id", id, "zone", spec.Zone)(&err)
	row, err := s.resolveJoin(id, spec)
	if err != nil {
		return err
	}
	// The event carries the RESOLVED dense row (not the spec's map form):
	// replay must see identical inputs regardless of which form the caller
	// used. It is consumed before Join returns, so row aliasing rowBuf is
	// fine.
	return s.commit(&repair.Event{Op: repair.OpJoin, ID: id, Zone: spec.Zone, RT: spec.BandwidthMbps, Row: row})
}

// resolveJoin resolves one joining client's RTTs to a dense delay row in
// the current server order — shared by Join and JoinBatch. An unknown zone
// is named before any RTT resolution error. The returned row may alias
// s.rowBuf or spec.RTTRow.
func (s *ClusterSession) resolveJoin(id string, spec ClientSpec) ([]float64, error) {
	if _, err := s.zone(spec.Zone); err != nil {
		return nil, err
	}
	return resolveRTTRow(id, spec, s.binding.ServerNames(), s.binding.ServerIndexOf, s.scratchRow())
}

// scratchRow returns the session's delay-row buffer, one entry per current
// server.
func (s *ClusterSession) scratchRow() []float64 {
	if m := s.NumServers(); cap(s.rowBuf) < m {
		s.rowBuf = make([]float64, m)
	} else {
		s.rowBuf = s.rowBuf[:m]
	}
	return s.rowBuf
}

// JoinBatch admits many clients in ONE repair event — the flash-crowd
// path. All memberships are applied first (each client attached greedily,
// exactly like a single Join), then one seeded repair scan runs over the
// union of the zones the batch touched, instead of one scan per client.
// The batch is validated before anything is applied: an error means no
// client was admitted.
func (s *ClusterSession) JoinBatch(joins []ClientJoin) (err error) {
	defer s.span("join_batch", "n", len(joins))(&err)
	e := &repair.Event{
		Op:    repair.OpJoinBatch,
		IDs:   make([]string, len(joins)),
		Zones: make([]string, len(joins)),
		RTs:   make([]float64, len(joins)),
		Rows:  make([][]float64, len(joins)),
	}
	for x, cj := range joins {
		row, err := s.resolveJoin(cj.ID, cj.Spec)
		if err != nil {
			return err
		}
		e.IDs[x], e.Zones[x], e.RTs[x] = cj.ID, cj.Spec.Zone, cj.Spec.BandwidthMbps
		// resolveJoin may hand back s.rowBuf; every row must survive the
		// whole batch.
		e.Rows[x] = append([]float64(nil), row...)
	}
	return s.commit(e)
}

// Leave removes the client, repairing around the zone it vacated. The ID
// becomes available for reuse.
func (s *ClusterSession) Leave(id string) (err error) {
	defer s.span("leave", "id", id)(&err)
	return s.commit(&repair.Event{Op: repair.OpLeave, ID: id})
}

// Move migrates the client's avatar to another zone, re-attaches it, and
// repairs around both the vacated and the entered zone.
func (s *ClusterSession) Move(id, zone string) (err error) {
	defer s.span("move", "id", id, "zone", zone)(&err)
	return s.commit(&repair.Event{Op: repair.OpMove, ID: id, Zone: zone})
}

// LeaveBatch removes many clients in ONE repair event — the mass-exodus
// mirror of JoinBatch. All memberships are removed first, then one seeded
// repair scan covers the union of the vacated zones. The batch is
// validated before anything is applied: an error (unknown or duplicated
// ID) means no client left.
func (s *ClusterSession) LeaveBatch(ids []string) (err error) {
	defer s.span("leave_batch", "n", len(ids))(&err)
	return s.commit(&repair.Event{Op: repair.OpLeaveBatch, IDs: ids})
}

// MoveBatch migrates many clients in ONE repair event: ids[x] moves to
// zones[x] (a zone ID; clients already in the named zone are allowed and
// unchanged). All memberships move first, then one seeded repair scan
// covers the union of vacated and entered zones. The batch is validated
// before anything is applied: an error means no client moved.
func (s *ClusterSession) MoveBatch(ids []string, zones []string) (err error) {
	defer s.span("move_batch", "n", len(ids))(&err)
	return s.commit(&repair.Event{Op: repair.OpMoveBatch, IDs: ids, Zones: zones})
}

// AddServer grows the live topology by one server. spec.RTTs must cover
// every CURRENT server (per-pair form; the session has no deferred
// coverage, unlike the builder); spec.ClientRTTs optionally supplies
// measured RTTs from existing clients to the new server — clients absent
// from it start at UnmeasuredRTTMs, keeping the unmeasured server
// unattractive until UpdateServerDelays streams real values in. The new
// server participates in every subsequent placement decision immediately.
func (s *ClusterSession) AddServer(id string, spec ServerSpec) (err error) {
	defer s.span("server_add", "server", id)(&err)
	return s.addServer(id, spec, false)
}

// AddSpareServer is AddServer for a warm spare: the server joins the
// topology with its delays and capacity registered but arrives cordoned —
// it hosts no zones and serves no contacts, and its capacity stays out of
// the utilization denominator — until UncordonServer admits it. This is
// the warm-pool registration verb for an autoscaling control plane:
// admission later is O(affected), never a full re-solve.
func (s *ClusterSession) AddSpareServer(id string, spec ServerSpec) (err error) {
	defer s.span("server_add_spare", "server", id)(&err)
	return s.addServer(id, spec, true)
}

// addServer resolves the server's per-pair RTTs to a dense inter-server row.
func (s *ClusterSession) addServer(id string, spec ServerSpec, spare bool) error {
	names := s.binding.ServerNames()
	ss := make([]float64, len(names))
	for i, sid := range names {
		d, ok := spec.RTTs[sid]
		if !ok {
			return fmt.Errorf("dvecap: server %q missing RTT to server %q", id, sid)
		}
		ss[i] = d
	}
	for sid, d := range spec.RTTs {
		if _, ok := s.binding.ServerIndexOf(sid); ok {
			continue
		}
		if sid == id {
			if d != 0 {
				return fmt.Errorf("dvecap: server %q self-RTT %v, want 0", id, d)
			}
			continue
		}
		return fmt.Errorf("dvecap: server %q RTT: %w %q", id, ErrUnknownServer, sid)
	}
	// The event carries the resolved dense inter-server row, in the server
	// order of its LSN — which is the order replay sees too.
	return s.commit(&repair.Event{Op: repair.OpAddServer, Server: id, Capacity: spec.CapacityMbps, Row: ss, ClientRTTs: spec.ClientRTTs, Spare: spare})
}

// RemoveServer retires the server from the topology. The server must be
// empty — hosting no zones and serving no contacts (ErrServerNotEmpty
// otherwise; DrainServer evacuates both) — and not the last one. Dense
// indices renumber (the last server takes the vacated index); IDs are
// stable.
func (s *ClusterSession) RemoveServer(id string) (err error) {
	defer s.span("server_remove", "server", id)(&err)
	return s.commit(&repair.Event{Op: repair.OpRemoveServer, Server: id})
}

// DrainServer evacuates the server for a rolling deploy: its capacity
// leaves the fleet, every zone it hosts is force-moved to the best
// available destination (with contact repair for clients the move pushed
// out of bound), contacts forwarding through it re-attach elsewhere, and
// one seeded repair pass runs over the affected zones — all in
// O(affected), no full re-solve. Afterwards the server holds nothing:
// RemoveServer retires it, or UncordonServer returns it to service.
func (s *ClusterSession) DrainServer(id string) (err error) {
	defer s.span("server_drain", "server", id)(&err)
	return s.commit(&repair.Event{Op: repair.OpDrainServer, Server: id})
}

// UncordonServer returns a drained server to service with its nominal
// capacity restored — the tail end of a rolling deploy. A no-op when the
// server is not draining.
func (s *ClusterSession) UncordonServer(id string) (err error) {
	defer s.span("server_uncordon", "server", id)(&err)
	return s.commit(&repair.Event{Op: repair.OpUncordon, Server: id})
}

// AddZone grows the virtual world by one (empty) zone, hosted per spec.
// spec.Adjacency seeds the zone's interaction edges to existing zones.
func (s *ClusterSession) AddZone(id string, spec ZoneSpec) (err error) {
	defer s.span("zone_add", "zone", id)(&err)
	// Validate the adjacency seed before journaling anything, so a bad spec
	// leaves neither the zone nor a partial edge set behind: the seed edges
	// are events of their own, naming a zone Check cannot see yet. A seed
	// creates its edge, so it takes the add form's weight range.
	neighbors := make([]string, 0, len(spec.Adjacency))
	for zid, w := range spec.Adjacency {
		if _, err := s.zone(zid); err != nil {
			return err
		}
		if err := repair.CheckEdge(repair.OpAddAdjacency, id, zid, w); err != nil {
			return fmt.Errorf("dvecap: %w", err)
		}
		neighbors = append(neighbors, zid)
	}
	sort.Strings(neighbors)
	if err := s.commit(&repair.Event{Op: repair.OpAddZone, Zone: id, Host: spec.Host}); err != nil {
		return err
	}
	// Each seed edge journals and applies as its own SetZoneAdjacency, in
	// sorted order — replay finds the identical sequence in the log.
	for _, zid := range neighbors {
		if err := s.SetZoneAdjacency(id, zid, spec.Adjacency[zid]); err != nil {
			return err
		}
	}
	return nil
}

// SetZoneAdjacency installs (or, with weight 0, removes) the interaction
// edge between two zones: the observed or modelled cross-zone interaction
// rate in Mbps, the input of the traffic term (DESIGN.md §15). Bookkeeping,
// not a churn event — no repair pass runs; the edge reshapes the objective
// that later repair scans (and full solves via Resolve) optimise. With the
// session's traffic weight at 0 the edge only feeds the traffic telemetry.
func (s *ClusterSession) SetZoneAdjacency(zone1, zone2 string, weightMbps float64) (err error) {
	defer s.span("adjacency_set", "zone", zone1, "zone2", zone2)(&err)
	return s.commit(&repair.Event{Op: repair.OpSetAdjacency, Zone: zone1, Zone2: zone2, Weight: weightMbps})
}

// AddAdjacencyWeight accumulates deltaMbps > 0 onto the interaction edge
// between two zones — the feedback verb mobility-driven workloads call as
// avatar crossings are observed, creating the edge at deltaMbps when it
// did not exist. Same bookkeeping-only semantics as SetZoneAdjacency.
func (s *ClusterSession) AddAdjacencyWeight(zone1, zone2 string, deltaMbps float64) (err error) {
	defer s.span("adjacency_add", "zone", zone1, "zone2", zone2)(&err)
	return s.commit(&repair.Event{Op: repair.OpAddAdjacency, Zone: zone1, Zone2: zone2, Weight: deltaMbps})
}

// TrafficCut returns the summed weight of interaction edges whose endpoint
// zones are currently hosted on different servers — the session's estimate
// of cross-server broadcast traffic in Mbps. 0 without adjacency edges.
func (s *ClusterSession) TrafficCut() float64 { return s.planner().TrafficCut() }

// TrafficCost returns the weighted traffic term (traffic weight × cut) as
// it enters the optimisation objective; 0 when the session was opened
// without WithTrafficWeight.
func (s *ClusterSession) TrafficCost() float64 { return s.planner().TrafficCost() }

// RetireZone removes an empty zone from the virtual world
// (ErrZoneNotEmpty while clients remain — Move or Leave them first).
// Dense indices renumber (the last zone takes the vacated index); IDs are
// stable.
func (s *ClusterSession) RetireZone(id string) (err error) {
	defer s.span("zone_retire", "zone", id)(&err)
	return s.commit(&repair.Event{Op: repair.OpRetireZone, Zone: id})
}

// Servers returns the live server inventory in dense index order: nominal
// capacity, current load, hosted zone count and drain status per server.
func (s *ClusterSession) Servers() []ServerStatus {
	pl := s.planner()
	names := s.binding.ServerNames()
	counts := pl.ServerZoneCounts()
	out := make([]ServerStatus, len(names))
	for i, id := range names {
		out[i] = ServerStatus{
			ID:           id,
			CapacityMbps: pl.ServerCapacity(i),
			LoadMbps:     pl.ServerLoad(i),
			Zones:        counts[i],
			Draining:     pl.Draining(i),
		}
	}
	return out
}

// UpdateDelays overlays freshly measured RTTs (by server ID; ms) onto the
// client's delay row and streams the refresh into the repair planner: the
// client is re-attached if the new delays pushed it out of bound, and a
// localized repair pass runs around its zone. Servers absent from rtts
// keep their previous measurement — partial refreshes are the norm when
// only a few paths were re-probed.
func (s *ClusterSession) UpdateDelays(id string, rtts map[string]float64) (err error) {
	defer s.span("delay_update", "id", id, "n", len(rtts))(&err)
	row := s.scratchRow()
	if err := s.binding.CopyDelays(id, row); err != nil {
		return err
	}
	for sid, d := range rtts {
		i, ok := s.binding.ServerIndexOf(sid)
		if !ok {
			return fmt.Errorf("dvecap: client %q RTT: %w %q", id, ErrUnknownServer, sid)
		}
		row[i] = d
	}
	if len(rtts) == 0 {
		return nil
	}
	// The event carries the MERGED dense row: replay must not depend on what
	// the row held before the crash-era partial refresh.
	return s.commit(&repair.Event{Op: repair.OpDelayRow, ID: id, Row: row})
}

// UpdateDelayRow is UpdateDelays with a full dense row in ServerIDs order
// — the matrix-supplied form, replacing every measurement at once.
func (s *ClusterSession) UpdateDelayRow(id string, rtts []float64) (err error) {
	defer s.span("delay_row", "id", id)(&err)
	return s.commit(&repair.Event{Op: repair.OpDelayRow, ID: id, Row: rtts})
}

// UpdateServerDelays is the server-column form of UpdateDelays: freshly
// measured RTTs from many clients (by client ID; ms) toward ONE server —
// the natural shape when a just-added server's probes stream in. All
// entries are applied, each refreshed client is re-attached greedily, and
// one seeded repair pass covers the union of touched zones; the whole
// column counts as a single repair event.
func (s *ClusterSession) UpdateServerDelays(server string, rtts map[string]float64) (err error) {
	defer s.span("delay_column", "server", server, "n", len(rtts))(&err)
	if len(rtts) == 0 {
		// Validates the server ID, applies nothing — not a journaled event.
		return s.binding.UpdateServerDelays(server, rtts)
	}
	return s.commit(&repair.Event{Op: repair.OpServerDelays, Server: server, RTTs: rtts})
}

// SetBandwidth updates the client's bandwidth requirement (Mbps) —
// bookkeeping for population- or activity-dependent bandwidth models, not
// a churn event (no repair pass).
func (s *ClusterSession) SetBandwidth(id string, mbps float64) (err error) {
	defer s.span("set_bandwidth", "id", id)(&err)
	return s.commit(&repair.Event{Op: repair.OpSetBandwidth, ID: id, RT: mbps})
}

// SetZoneBandwidth sets the bandwidth requirement of every client
// currently in the zone to perClientMbps — one state update per frame
// covers the zone's whole population, so a membership change re-prices
// every member (see the bandwidth model in DESIGN.md §4).
func (s *ClusterSession) SetZoneBandwidth(zone string, perClientMbps float64) (err error) {
	defer s.span("set_zone_bandwidth", "zone", zone)(&err)
	return s.commit(&repair.Event{Op: repair.OpSetZoneBW, Zone: zone, RT: perClientMbps})
}

// Resolve forces one full two-phase re-solve, re-anchoring the drift
// baseline.
func (s *ClusterSession) Resolve() (err error) {
	defer s.span("resolve")(&err)
	return s.commit(&repair.Event{Op: repair.OpResolve})
}

// ZoneHost returns the ID of the server currently hosting the zone.
func (s *ClusterSession) ZoneHost(zone string) (string, error) {
	z, err := s.zone(zone)
	if err != nil {
		return "", err
	}
	return s.binding.ServerID(s.binding.Planner().ZoneHost(z)), nil
}

// Client returns the client's current assignment.
func (s *ClusterSession) Client(id string) (ClusterClient, error) {
	pl := s.binding.Planner()
	j, err := s.binding.Index(id)
	if err != nil {
		return ClusterClient{}, err
	}
	p := pl.Problem()
	z := p.ClientZones[j]
	delay := pl.ClientDelay(j)
	return ClusterClient{
		ID:            id,
		Zone:          s.binding.ZoneID(z),
		Contact:       s.binding.ServerID(pl.Contact(j)),
		Target:        s.binding.ServerID(pl.ZoneHost(z)),
		DelayMs:       delay,
		QoS:           delay <= p.D,
		BandwidthMbps: p.ClientRT[j],
	}, nil
}

// SessionStats mirrors the repair subsystem's counters.
type SessionStats struct {
	// Joins, Leaves and Moves count the churn events applied (a JoinBatch
	// counts one join per admitted client).
	Joins, Leaves, Moves int
	// DelayUpdates counts measured-delay refreshes streamed into the
	// planner (ClusterSession.UpdateDelays, or one per UpdateServerDelays
	// column).
	DelayUpdates int
	// Topology counters: servers added, drained and removed, zones added
	// and retired on the live session.
	ServerAdds, ServerDrains, ServerRemoves int
	ZoneAdds, ZoneRetires                   int
	// FullSolves counts full two-phase re-solves (the initial one, drift-
	// triggered ones, and explicit Resolve calls). ImbalanceSolves counts
	// the subset triggered by the load-imbalance guard alone
	// (WithImbalanceGuard) — utilization spread drifted while pQoS held.
	FullSolves      int
	ImbalanceSolves int
	// ZoneHandoffs counts zone rehostings; ContactSwitches counts contact
	// re-placements made by the repair path.
	ZoneHandoffs, ContactSwitches int
	// AdjacencyEdits counts interaction-graph edge updates applied
	// (SetZoneAdjacency, AddAdjacencyWeight and ZoneSpec.Adjacency seeds).
	AdjacencyEdits int
	// LastDriftPQoS is the current pQoS decay below the last full solve;
	// LastUtilSpread the current max−min per-server utilization spread over
	// non-drained servers.
	LastDriftPQoS  float64
	LastUtilSpread float64
	// LastSolveError reports a failed drift-guard full solve (empty when
	// the last one succeeded).
	LastSolveError string
}

// sessionStatsFrom maps the repair planner's counters into the public
// shape.
func sessionStatsFrom(st repair.Stats) SessionStats {
	return SessionStats{
		Joins:           st.Joins,
		Leaves:          st.Leaves,
		Moves:           st.Moves,
		DelayUpdates:    st.DelayUpdates,
		ServerAdds:      st.ServerAdds,
		ServerDrains:    st.ServerDrains,
		ServerRemoves:   st.ServerRemoves,
		ZoneAdds:        st.ZoneAdds,
		ZoneRetires:     st.ZoneRetires,
		FullSolves:      st.FullSolves,
		ImbalanceSolves: st.ImbalanceSolves,
		ZoneHandoffs:    st.ZoneHandoffs,
		ContactSwitches: st.ContactSwitches,
		AdjacencyEdits:  st.AdjacencyEdits,
		LastDriftPQoS:   st.LastDriftPQoS,
		LastUtilSpread:  st.LastUtilSpread,
		LastSolveError:  st.LastSolveError,
	}
}

// Stats returns the session's repair counters.
func (s *ClusterSession) Stats() SessionStats {
	return sessionStatsFrom(s.binding.Planner().Stats())
}

// PQoS returns the maintained solution's fraction of clients in bound.
func (s *ClusterSession) PQoS() float64 { return s.binding.Planner().PQoS() }

// Utilization returns total server load over total LIVE capacity — a
// draining server's capacity has left the fleet until UncordonServer
// restores it, so utilization rises during a rolling deploy exactly as a
// real fleet's does.
func (s *ClusterSession) Utilization() float64 { return s.binding.Planner().Utilization() }

// Result reports the maintained solution against the session's current
// truth (the measured delays it has been fed), in the same shape Solve
// returns — the numbers core.Evaluate would compute, read from what the
// planner's evaluator already maintains instead of re-derived from every
// client's delays. Result.ClientIDs names the client behind each dense index;
// zone and server indices follow the session's CURRENT ZoneIDs and
// ServerIDs order (topology events renumber).
func (s *ClusterSession) Result() (*Result, error) {
	pl := s.binding.Planner()
	p := pl.Problem()
	a := pl.Assignment()
	return newResult(s.m.Algo(), p, a, pl.Evaluator().Metrics(), s.binding.DenseIDs()), nil
}
