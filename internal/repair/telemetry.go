package repair

import (
	"time"

	"dvecap/internal/core"
	"dvecap/telemetry"
)

// eventKind enumerates the planner's instrumented event surfaces. Batch
// calls get their own kinds so a thousand-client JoinBatch's latency is
// not averaged into the single-join distribution; the event *counters*
// still follow Stats semantics (a batch adds its member count under the
// singular type).
type eventKind int

const (
	evJoin eventKind = iota
	evLeave
	evMove
	evDelayUpdate
	evJoinBatch
	evLeaveBatch
	evMoveBatch
	evDelayColumn
	evServerAdd
	evServerDrain
	evServerUncordon
	evServerRemove
	evZoneAdd
	evZoneRetire
	numEventKinds
)

var eventNames = [numEventKinds]string{
	"join", "leave", "move", "delay_update",
	"join_batch", "leave_batch", "move_batch", "delay_column",
	"server_add", "server_drain", "server_uncordon", "server_remove",
	"zone_add", "zone_retire",
}

// counterKind maps a batch call's histogram kind to the singular kind its
// event counter accumulates under.
var counterKind = [numEventKinds]eventKind{
	evJoin: evJoin, evLeave: evLeave, evMove: evMove, evDelayUpdate: evDelayUpdate,
	evJoinBatch: evJoin, evLeaveBatch: evLeave, evMoveBatch: evMove, evDelayColumn: evDelayUpdate,
	evServerAdd: evServerAdd, evServerDrain: evServerDrain,
	evServerUncordon: evServerUncordon, evServerRemove: evServerRemove,
	evZoneAdd: evZoneAdd, evZoneRetire: evZoneRetire,
}

// plTele holds the planner's pre-registered metric handles; the zero value
// is disabled. Like the evaluator's handles, everything here is
// observation only — attaching a registry cannot change a repair decision.
type plTele struct {
	on  bool
	reg *telemetry.Registry

	events [numEventKinds]*telemetry.Counter
	lat    [numEventKinds]*telemetry.Histogram

	fsDrift, fsImbalance, fsEpoch  *telemetry.Counter
	fsDur                          *telemetry.Histogram
	fsPhase                        [core.NumPhases + 1]*telemetry.Histogram
	fsLate, fsRebuilds, fsRowsRead *telemetry.Counter
	fsFromIndex, fsFromRows        *telemetry.Counter

	handoffs, switches          *telemetry.Counter
	prevHandoffs, prevSwitches  int
	pqos, drift, util, spread   *telemetry.Gauge
	clients, servers, zoneGauge *telemetry.Gauge

	// Traffic-term series (DESIGN.md §15): cumulative adjacency-edit
	// counter plus live gauges for the cross-server cut weight, the
	// weighted objective term and the cut edge count.
	adjEdits                          *telemetry.Counter
	prevAdjEdits                      int
	trafficCut, trafficCost, cutEdges *telemetry.Gauge
}

// solvePhaseNames label dvecap_solve_phase_seconds: a solve's phases
// (core.PhaseNames), then adopt, the evaluator installing its result.
var solvePhaseNames = append(core.PhaseNames[:], "adopt")

// phaseAdopt is adopt's index in solvePhaseNames.
const phaseAdopt = core.NumPhases

// SetTelemetry attaches (nil detaches) a metrics registry to the planner
// and its evaluator. Exposed series: per-event-type repair counters and
// latency histograms, full-solve counters labeled by trigger
// (drift/imbalance/epoch) with a duration histogram and one per phase,
// GreC's late-client and preference-rebuild counts and what fed each
// solve's cost matrix (the late index or the delay rows), cumulative
// zone-handoff and contact-switch counters, and live gauges for pQoS, pQoS
// drift, utilization, utilization spread and population — refreshed after
// every event, so a scrape always sees the maintained solution's current
// quality.
func (pl *Planner) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		pl.tele = plTele{}
		if pl.ev != nil {
			pl.ev.SetTelemetry(nil)
		}
		return
	}
	t := plTele{on: true, reg: reg,
		prevHandoffs: pl.stats.ZoneHandoffs, prevSwitches: pl.stats.ContactSwitches,
		prevAdjEdits: pl.stats.AdjacencyEdits}
	for k := eventKind(0); k < numEventKinds; k++ {
		t.events[k] = reg.Counter("dvecap_repair_events_total",
			"Churn and topology events handled by the repair planner.", "type", eventNames[counterKind[k]])
		t.lat[k] = reg.Histogram("dvecap_repair_duration_seconds",
			"Wall time to apply and repair one planner event (batch calls are one observation).",
			nil, "type", eventNames[k])
	}
	t.fsDrift = reg.Counter("dvecap_full_solves_total",
		"Full two-phase re-solves by trigger.", "trigger", "drift")
	t.fsImbalance = reg.Counter("dvecap_full_solves_total",
		"Full two-phase re-solves by trigger.", "trigger", "imbalance")
	t.fsEpoch = reg.Counter("dvecap_full_solves_total",
		"Full two-phase re-solves by trigger.", "trigger", "epoch")
	t.fsDur = reg.Histogram("dvecap_full_solve_duration_seconds",
		"Wall time of one full two-phase re-solve.", nil)
	for ph, name := range solvePhaseNames {
		t.fsPhase[ph] = reg.Histogram("dvecap_solve_phase_seconds",
			"Wall time of one phase of a full re-solve; a GreZ-GreC solve's phases cover it end to end.", nil, "phase", name)
	}
	t.fsLate = reg.Counter("dvecap_solve_late_clients_total",
		"Clients beyond the delay bound at their target server, summed over full solves (GreC's work list).")
	t.fsRebuilds = reg.Counter("dvecap_solve_preference_rebuilds_total",
		"Late clients refused by both kept candidates and placed on a third choice: one arg-max over the servers that still accepted them, no sort (the name predates that).")
	t.fsRowsRead = reg.Counter("dvecap_solve_late_rows_read_total",
		"Late clients whose delay row a full solve read to choose their two kept candidates: the rest reused the choice the late index kept from the last solve (no row written since, same target).")
	const matrixHelp = "Full solves by what fed the IAP cost matrix: the maintained late index, or a read of every client's delay row (a session's first solve, and the first after a recovery)."
	t.fsFromIndex = reg.Counter("dvecap_solve_cost_matrix_total", matrixHelp, "source", core.CostMatrixFromIndex)
	t.fsFromRows = reg.Counter("dvecap_solve_cost_matrix_total", matrixHelp, "source", core.CostMatrixFromRows)
	t.handoffs = reg.Counter("dvecap_zone_handoffs_total",
		"Zone rehostings: localized repair moves plus full-solve diffs.")
	t.switches = reg.Counter("dvecap_contact_switches_total",
		"Contact re-placements made by the repair path.")
	t.pqos = reg.Gauge("dvecap_pqos", "Fraction of clients within the delay bound.")
	t.drift = reg.Gauge("dvecap_pqos_drift", "pQoS decay below the last full solve's baseline.")
	t.util = reg.Gauge("dvecap_utilization", "Total load over total available capacity.")
	t.spread = reg.Gauge("dvecap_utilization_spread", "Max-min per-server utilization over the available fleet.")
	t.adjEdits = reg.Counter("dvecap_traffic_adjacency_edits_total",
		"Interaction-graph edge updates applied to the live planner.")
	t.trafficCut = reg.Gauge("dvecap_traffic_cut_weight",
		"Summed weight of interaction edges whose endpoint zones are hosted apart (Mbps).")
	t.trafficCost = reg.Gauge("dvecap_traffic_cost",
		"Weighted traffic objective term: traffic weight x cut weight.")
	t.cutEdges = reg.Gauge("dvecap_traffic_cross_edges",
		"Count of interaction edges currently hosted across two servers.")
	t.clients = reg.Gauge("dvecap_clients", "Current client population.")
	t.servers = reg.Gauge("dvecap_servers", "Current server count (including draining).")
	t.zoneGauge = reg.Gauge("dvecap_zones", "Current zone count.")
	pl.tele = t
	if pl.ev != nil {
		pl.ev.SetTelemetry(reg)
		pl.syncTele()
	}
}

// teleStart samples the clock only when telemetry is attached; the zero
// time flows into teleEvent, which ignores it when disabled.
func (pl *Planner) teleStart() time.Time {
	if !pl.tele.on {
		return time.Time{}
	}
	return time.Now()
}

// teleEvent records a successfully applied planner call: n events under
// kind k's counter label and one latency observation. Call only on the
// success path — rejected events apply nothing and must not pollute the
// latency distribution.
func (pl *Planner) teleEvent(k eventKind, n int, start time.Time) {
	if !pl.tele.on {
		return
	}
	pl.tele.events[k].Add(uint64(n))
	pl.tele.lat[k].Observe(time.Since(start).Seconds())
}

// syncTele refreshes the live gauges and rolls the Stats-maintained
// handoff/switch totals into their counters. Runs after every event (from
// afterEventN) and after every full solve.
func (pl *Planner) syncTele() {
	t := &pl.tele
	if !t.on {
		return
	}
	t.pqos.Set(pl.ev.PQoS())
	t.drift.Set(pl.stats.LastDriftPQoS)
	t.util.Set(pl.Utilization())
	t.spread.Set(pl.stats.LastUtilSpread)
	t.clients.Set(float64(pl.ev.NumClients()))
	t.servers.Set(float64(pl.prob.NumServers()))
	t.zoneGauge.Set(float64(pl.prob.NumZones))
	if d := pl.stats.ZoneHandoffs - t.prevHandoffs; d > 0 {
		t.handoffs.Add(uint64(d))
		t.prevHandoffs = pl.stats.ZoneHandoffs
	}
	if d := pl.stats.ContactSwitches - t.prevSwitches; d > 0 {
		t.switches.Add(uint64(d))
		t.prevSwitches = pl.stats.ContactSwitches
	}
	if d := pl.stats.AdjacencyEdits - t.prevAdjEdits; d > 0 {
		t.adjEdits.Add(uint64(d))
		t.prevAdjEdits = pl.stats.AdjacencyEdits
	}
	cut, edges := pl.ev.Cut()
	t.trafficCut.Set(cut)
	t.trafficCost.Set(pl.ev.TrafficCost())
	t.cutEdges.Set(float64(edges))
}

// teleFullSolve records one completed full solve under its trigger, with
// its phases: the workspace's, timed since start, and adopt, which ended at
// adopted.
func (pl *Planner) teleFullSolve(trigger string, start, adopted time.Time) {
	t := &pl.tele
	if !t.on {
		return
	}
	spent, solved := pl.cfg.Opt.Scratch.PhaseTimes()
	for ph, d := range spent {
		t.fsPhase[ph].Observe(d.Seconds())
	}
	t.fsPhase[phaseAdopt].Observe(adopted.Sub(solved).Seconds())
	switch trigger {
	case triggerDrift:
		t.fsDrift.Inc()
	case triggerImbalance:
		t.fsImbalance.Inc()
	default:
		t.fsEpoch.Inc()
	}
	t.fsDur.Observe(time.Since(start).Seconds())
	late, rebuilds := pl.cfg.Opt.Scratch.GreCCounts()
	t.fsLate.Add(uint64(late))
	t.fsRebuilds.Add(uint64(rebuilds))
	t.fsRowsRead.Add(uint64(pl.cfg.Opt.Scratch.GreCLateRowsRead()))
	switch pl.cfg.Opt.Scratch.CostMatrixSource() {
	case core.CostMatrixFromIndex:
		t.fsFromIndex.Inc()
	case core.CostMatrixFromRows:
		t.fsFromRows.Inc()
	}
}
