// Package repair implements incremental churn repair for the client
// assignment problem: O(affected) re-optimisation per join/leave/move/
// delay-update event, in place of the full two-phase re-execution the
// paper's §3.4 prescribes for DVE dynamics (DESIGN.md §7).
//
// A Planner sits on a long-lived core.Evaluator bound to a problem the
// planner owns exclusively. Each churn event is applied through the
// evaluator's O(1) mutation deltas, the affected client is re-attached
// with one step of GreC's greedy contact logic, and a localized zone-move
// scan is seeded from the zones whose client sets or loads the event
// changed. Quality drift against the last full two-phase solve is tracked
// continuously; when it decays past a configurable threshold the planner
// amortizes one full re-solve and resumes repairing from there. A full
// re-solve runs the configured algorithm from scratch, as §3.4 does; the
// evaluator then adopts its result (DESIGN.md §8).
//
// Clients, servers and zones are addressed by dense index. A removal
// compacts with a swap-remove — the last entry takes the vacated index — and
// returns the index it moved from, so the binding that names things
// (IDBinding) follows the renumbering.
package repair

import (
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

// Config parameterises a Planner.
type Config struct {
	// Algo is the two-phase algorithm used for the initial solve and every
	// full re-solve (required).
	Algo core.TwoPhase
	// Opt configures full solves. A Scratch workspace is attached
	// automatically when none is set, and Late is pointed at the planner's
	// own late index, which starts as a copy of the caller's Late when that
	// one is filled for the problem handed in. Opt.Workers also configures
	// the planner's evaluator: the seeded repair scans consult the evaluator's
	// candidate-delta cache either way, and full solves shard the greedy
	// phase's cost-matrix build across that many goroutines (DESIGN.md §8).
	// Repair decisions are bit-identical for every worker count.
	Opt core.Options
	// DriftPQoS, when > 0, arms the quality guard: as soon as the
	// maintained solution's pQoS falls more than this far below the level
	// the last full solve achieved, the planner re-runs the full two-phase
	// algorithm. 0 disables the guard — full solves then happen only
	// through explicit FullSolve calls (e.g. a fallback cadence).
	DriftPQoS float64
	// DriftUtilSpread, when > 0, arms the imbalance guard: a full re-solve
	// fires when the max−min per-server utilization spread (load/capacity
	// over non-draining servers) rises more than this far above the spread
	// the last full solve left behind. Relative-to-baseline, like the pQoS
	// guard, so a fleet whose best achievable balance is inherently lopsided
	// does not thrash. pQoS can hold steady while churn piles load onto a
	// few servers; this trigger catches that hot-spot drift.
	DriftUtilSpread float64
}

// Stats counts what the planner has done since construction.
type Stats struct {
	Joins        int `json:"joins"`
	Leaves       int `json:"leaves"`
	Moves        int `json:"moves"`
	DelayUpdates int `json:"delay_updates"`
	// Topology events (topology.go): servers added, drained and removed,
	// zones added and retired on the live planner.
	ServerAdds      int `json:"server_adds"`
	ServerDrains    int `json:"server_drains"`
	ServerUncordons int `json:"server_uncordons"`
	ServerRemoves   int `json:"server_removes"`
	ZoneAdds        int `json:"zone_adds"`
	ZoneRetires     int `json:"zone_retires"`
	// Events is the total event count: client churn (the four client
	// counters above; a JoinBatch counts one event per admitted client)
	// plus topology events.
	Events int `json:"events"`
	// FullSolves counts full two-phase re-solves, including the initial
	// one and explicit FullSolve calls.
	FullSolves int `json:"full_solves"`
	// ZoneHandoffs counts zone rehostings: localized repair moves plus
	// zones whose server changed across a full re-solve.
	ZoneHandoffs int `json:"zone_handoffs"`
	// AdjacencyEdits counts interaction-graph edge updates (SetAdjacency
	// and AddAdjacency) applied to the live planner.
	AdjacencyEdits int `json:"adjacency_edits,omitempty"`
	// ContactSwitches counts contact re-placements made by the repair path
	// (full solves re-derive all contacts and are not counted here).
	ContactSwitches int `json:"contact_switches"`
	// BaselinePQoS is the pQoS the last full solve achieved; LastDriftPQoS
	// is how far below it the maintained solution currently sits.
	BaselinePQoS  float64 `json:"baseline_pqos"`
	LastDriftPQoS float64 `json:"last_drift_pqos"`
	// ImbalanceSolves counts full solves fired by the utilization-spread
	// guard alone (pQoS guard quiet at the time). BaselineUtilSpread is the
	// spread the last full solve left behind; LastUtilSpread the current
	// one.
	ImbalanceSolves    int     `json:"imbalance_solves"`
	BaselineUtilSpread float64 `json:"baseline_util_spread"`
	LastUtilSpread     float64 `json:"last_util_spread"`
	// LastSolveError is the message of the most recent failed drift-guard
	// full solve (empty when the last one succeeded). The solve spills on
	// overflow, so it fails only on a malformed problem or an invalid
	// result; failed solves back off exponentially.
	LastSolveError string `json:"last_solve_error,omitempty"`
}

// Planner maintains a CAP solution under churn.
type Planner struct {
	cfg Config
	rng *xrand.RNG

	prob *core.Problem
	ev   *core.Evaluator
	// late is the evaluator's late index (core/lateindex.go): copied from
	// the caller's, or filled by the first full solve as a by-product of its
	// count pass; kept current by the evaluator, read by every later full
	// solve in place of the delays.
	late core.LateIndex

	// Batch scratch (topology.go), kept across calls so a steady stream of
	// batches allocates nothing. batchMark[j] is batchBase+1+x while client j
	// is member x of the open batch (openBatch), no member at or below
	// batchBase; batchCur is LeaveBatch's copy of its members, batchZones a
	// batch's touched zones for the seeded repair scan.
	batchMark           []uint32
	batchBase, batchEnd uint32
	batchCur            []int
	batchZones          []int

	eventsSinceFull int
	failBackoff     int // events to wait after a failed guard solve; doubles per failure
	stats           Stats
	adopted         core.Adoption // what the last re-solve changed; not snapshot state

	// Metric handles (telemetry.go); the zero value is fully disabled.
	tele plTele
}

// New builds a planner over a clone of p (the planner owns its copy
// exclusively), runs the initial full solve with cfg.Algo, and returns the
// ready planner. Client j of p is client j of the planner.
func New(cfg Config, p *core.Problem, rng *xrand.RNG) (*Planner, error) {
	pl, err := prepare(cfg, p, rng)
	if err != nil {
		return nil, err
	}
	if err := pl.FullSolve(); err != nil {
		return nil, err
	}
	return pl, nil
}

// NewWithAssignment is New for callers that already hold a solution for p
// (e.g. a simulation's initial solve): no algorithm run happens, a is
// adopted as the baseline.
func NewWithAssignment(cfg Config, p *core.Problem, a *core.Assignment, rng *xrand.RNG) (*Planner, error) {
	pl, err := prepare(cfg, p, rng)
	if err != nil {
		return nil, err
	}
	if err := a.Validate(p); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	pl.bindEvaluator(a)
	pl.stats.BaselinePQoS = pl.ev.PQoS()
	return pl, nil
}

// bindEvaluator creates the planner's evaluator over its problem with a
// loaded, wired to the planner's worker count, late index and telemetry.
func (pl *Planner) bindEvaluator(a *core.Assignment) {
	pl.ev = core.NewEvaluator(pl.prob, a)
	pl.ev.SetWorkers(pl.cfg.Opt.Workers)
	pl.ev.SetLateIndex(&pl.late)
	if pl.tele.on {
		pl.ev.SetTelemetry(pl.tele.reg)
	}
}

func prepare(cfg Config, p *core.Problem, rng *xrand.RNG) (*Planner, error) {
	if cfg.Algo.Init == nil || cfg.Algo.Refine == nil {
		return nil, fmt.Errorf("repair: config needs a complete two-phase algorithm")
	}
	if rng == nil {
		return nil, fmt.Errorf("repair: nil RNG")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	if cfg.Opt.Scratch == nil {
		cfg.Opt.Scratch = core.NewWorkspace()
	}
	// The clone holds the delays in a store the planner's mutations write:
	// raw rows are loaded into the exact store (core.Problem.Clone).
	pl := &Planner{cfg: cfg, rng: rng, prob: p.Clone()}
	// A caller's index filled for p describes the clone too; the planner
	// takes a copy, since its evaluator will rewrite the bits.
	if cfg.Opt.Late.ValidFor(p) {
		pl.late.CopyFrom(cfg.Opt.Late, pl.prob)
	}
	pl.cfg.Opt.Late = &pl.late
	return pl, nil
}

// checkDelays refuses a negative client-server delay before it reaches the
// planner's problem; NaN marks an entry unmeasured (core.Problem's delay
// contract). Every entry point that stores delays calls it before touching
// the evaluator — what lets a full solve skip re-validating the stored
// entries. Entries are indexed along axis ("server" for a client's row,
// "client" for a server's column).
func checkDelays(ds []float64, axis string) error {
	for x, d := range ds {
		if d < 0 {
			return fmt.Errorf("repair: %s %d delay %v ms, want >= 0 (NaN marks unmeasured)", axis, x, d)
		}
	}
	return nil
}

// checkClient resolves a client index.
func (pl *Planner) checkClient(j int) error {
	if j < 0 || j >= pl.ev.NumClients() {
		return fmt.Errorf("repair: %w %d", ErrUnknownClient, j)
	}
	return nil
}

// Join admits a client into zone with bandwidth requirement rt and
// client-server delay row cs (copied), attaches it greedily, repairs
// around the zone it landed in, and returns the client's index — the
// last one.
func (pl *Planner) Join(zone int, rt float64, cs []float64) (int, error) {
	if zone < 0 || zone >= pl.prob.NumZones {
		return 0, fmt.Errorf("repair: zone %d outside [0,%d)", zone, pl.prob.NumZones)
	}
	if !FinitePos(rt) {
		return 0, fmt.Errorf("repair: client RT %v, want finite > 0", rt)
	}
	if len(cs) != pl.prob.NumServers() {
		return 0, fmt.Errorf("repair: delay row has %d entries, want %d", len(cs), pl.prob.NumServers())
	}
	if err := checkDelays(cs, "server"); err != nil {
		return 0, err
	}
	start := pl.teleStart()
	j := pl.ev.AddClient(zone, rt, cs)
	if pl.ev.GreedyContact(j) {
		pl.stats.ContactSwitches++
	}
	pl.stats.Joins++
	pl.repairZones(zone)
	pl.afterEvent()
	pl.teleEvent(evJoin, 1, start)
	return j, nil
}

// Leave removes client j and repairs around the zone it vacated. Removal
// compacts by renumbering the last client to index j; the renumbered
// client's previous index is returned (or -1 when j was last) so ID layers
// can update their maps.
func (pl *Planner) Leave(j int) (moved int, err error) {
	if err := pl.checkClient(j); err != nil {
		return -1, err
	}
	start := pl.teleStart()
	zone := pl.prob.ClientZones[j]
	moved = pl.ev.RemoveClient(j)
	pl.stats.Leaves++
	pl.repairZones(zone)
	pl.afterEvent()
	pl.teleEvent(evLeave, 1, start)
	return moved, nil
}

// Move migrates client j's avatar to newZone, re-attaches it, and repairs
// around both the vacated and the entered zone.
func (pl *Planner) Move(j, newZone int) error {
	if err := pl.checkClient(j); err != nil {
		return err
	}
	if newZone < 0 || newZone >= pl.prob.NumZones {
		return fmt.Errorf("repair: zone %d outside [0,%d)", newZone, pl.prob.NumZones)
	}
	start := pl.teleStart()
	old := pl.prob.ClientZones[j]
	pl.stats.Moves++
	if newZone != old {
		pl.ev.MoveClient(j, newZone)
		if pl.ev.GreedyContact(j) {
			pl.stats.ContactSwitches++
		}
		pl.repairZones(old, newZone)
	}
	pl.afterEvent()
	pl.teleEvent(evMove, 1, start)
	return nil
}

// UpdateDelays replaces client j's measured delay row (copied) and
// re-attaches it if the refresh pushed it out of bound.
func (pl *Planner) UpdateDelays(j int, cs []float64) error {
	if err := pl.checkClient(j); err != nil {
		return err
	}
	if len(cs) != pl.prob.NumServers() {
		return fmt.Errorf("repair: delay row has %d entries, want %d", len(cs), pl.prob.NumServers())
	}
	if err := checkDelays(cs, "server"); err != nil {
		return err
	}
	start := pl.teleStart()
	pl.ev.SetClientDelays(j, cs)
	if pl.ev.GreedyContact(j) {
		pl.stats.ContactSwitches++
	}
	pl.stats.DelayUpdates++
	pl.repairZones(pl.prob.ClientZones[j])
	pl.afterEvent()
	pl.teleEvent(evDelayUpdate, 1, start)
	return nil
}

// SetRT updates client j's bandwidth requirement — bookkeeping for
// population-dependent bandwidth models, not a churn event (no repair
// pass, no drift check).
func (pl *Planner) SetRT(j int, rt float64) error {
	if err := pl.checkClient(j); err != nil {
		return err
	}
	if !FinitePos(rt) {
		return fmt.Errorf("repair: client RT %v, want finite > 0", rt)
	}
	pl.ev.SetClientRT(j, rt)
	return nil
}

// RefreshZoneRT sets the bandwidth requirement of every client of zone z
// to rt — the per-zone-uniform bandwidth models (one state update per
// frame covering the zone's population) after that population changed.
func (pl *Planner) RefreshZoneRT(z int, rt float64) error {
	if z < 0 || z >= pl.prob.NumZones {
		return fmt.Errorf("repair: zone %d outside [0,%d)", z, pl.prob.NumZones)
	}
	if !FinitePos(rt) {
		return fmt.Errorf("repair: client RT %v, want finite > 0", rt)
	}
	for _, j := range pl.ev.ZoneClients(z) {
		pl.ev.SetClientRT(j, rt)
	}
	return nil
}

// repairZones runs the localized repair pass seeded from the given zones:
// the single best improving rehosting per seed zone, and — when a zone did
// move — greedy contact re-placement for its still-out-of-bound clients.
func (pl *Planner) repairZones(zones ...int) {
	for _, z := range zones {
		if !pl.ev.ImproveZone(z) {
			continue
		}
		pl.stats.ZoneHandoffs++
		for _, j := range pl.ev.ZoneClients(z) {
			if pl.ev.ClientDelay(j) <= pl.prob.D {
				continue
			}
			if pl.ev.GreedyContact(j) {
				pl.stats.ContactSwitches++
			}
		}
	}
}

// afterEvent updates drift tracking and fires the amortized full re-solve
// when the quality guard trips. It never fails the event: by the time the
// guard runs, the event is fully applied and the maintained solution is
// valid, so a failing solve (see Stats.LastSolveError for the causes) is
// recorded in Stats.LastSolveError and retried with exponential event
// backoff so the O(affected) path never degrades into one failing full
// solve per event.
func (pl *Planner) afterEvent() { pl.afterEventN(1) }

// afterEventN is afterEvent for batched events: n events are accounted,
// the guard runs once.
func (pl *Planner) afterEventN(n int) {
	pl.stats.Events += n
	pl.eventsSinceFull += n
	pl.stats.LastDriftPQoS = pl.stats.BaselinePQoS - pl.ev.PQoS()
	pl.stats.LastUtilSpread = pl.utilSpread()
	pqosTrip := pl.cfg.DriftPQoS > 0 && pl.stats.LastDriftPQoS > pl.cfg.DriftPQoS
	spreadTrip := pl.cfg.DriftUtilSpread > 0 &&
		pl.stats.LastUtilSpread-pl.stats.BaselineUtilSpread > pl.cfg.DriftUtilSpread
	if (pqosTrip || spreadTrip) && pl.eventsSinceFull >= max(1, pl.failBackoff) {
		trigger := triggerDrift
		if spreadTrip && !pqosTrip {
			pl.stats.ImbalanceSolves++
			trigger = triggerImbalance
		}
		if err := pl.fullSolve(trigger); err != nil {
			pl.stats.LastSolveError = err.Error()
			pl.eventsSinceFull = 0
			if pl.failBackoff == 0 {
				pl.failBackoff = 1
			} else if pl.failBackoff < 1024 {
				pl.failBackoff *= 2
			}
		}
	}
	pl.syncTele()
}

// Full-solve trigger labels (the dvecap_full_solves_total counter):
// triggerDrift is the pQoS quality guard, triggerImbalance the
// utilization-spread guard, triggerEpoch every explicit FullSolve call —
// the initial solve, fallback cadences, POST /v1/reassign.
const (
	triggerDrift     = "drift"
	triggerImbalance = "imbalance"
	triggerEpoch     = "epoch"
)

// FullSolve re-runs the configured two-phase algorithm over the planner's
// whole problem and adopts the result as the new drift baseline. Callers
// running a fallback cadence invoke this on their timer; the drift guard
// invokes it automatically when armed.
func (pl *Planner) FullSolve() error { return pl.fullSolve(triggerEpoch) }

func (pl *Planner) fullSolve(trigger string) error {
	start := pl.teleStart()
	opt := pl.cfg.Opt
	if pl.ev != nil && pl.availableServers() < pl.prob.NumServers() {
		// An in-flight drain survives the full solve: cordoned servers
		// take no zones and no contacts, not even as spill.
		opt.Cordoned = pl.ev.Cordons()
	}
	if pl.tele.on {
		opt.Scratch.TimePhases(start)
	}
	// The planner owns every writer of its problem's delays and each one
	// refuses a bad entry (checkDelays), so the solve does not re-read them.
	a, err := pl.cfg.Algo.SolveOwned(pl.rng.Split(), pl.prob, opt)
	if err != nil {
		opt.Scratch.PhaseTimes() // disarm
		return fmt.Errorf("repair: full solve: %w", err)
	}
	if pl.ev != nil {
		pl.adopted = pl.ev.Adopt(a)
		pl.stats.ZoneHandoffs += pl.adopted.Rehosted
	} else {
		pl.bindEvaluator(a)
	}
	adopted := pl.teleStart()
	pl.stats.FullSolves++
	pl.stats.BaselinePQoS = pl.ev.PQoS()
	pl.stats.LastDriftPQoS = 0
	// The solve's own spread re-anchors the imbalance guard: drift is
	// measured against what a full solve can actually achieve.
	pl.stats.BaselineUtilSpread = pl.utilSpread()
	pl.stats.LastUtilSpread = pl.stats.BaselineUtilSpread
	pl.stats.LastSolveError = ""
	pl.eventsSinceFull = 0
	pl.failBackoff = 0
	pl.teleFullSolve(trigger, start, adopted)
	pl.syncTele()
	return nil
}

// SetAdjacency installs (or, with weight 0, removes) the interaction edge
// (a, b) in the planner's zone-adjacency graph — the traffic term's input
// (DESIGN.md §15). Pure bookkeeping, not a churn event: no repair pass
// runs and the drift guard is not consulted. Optimization pressure comes
// from the traffic-aware repair scans that later churn triggers (and from
// Optimize); edits only reshape the objective those scans see.
func (pl *Planner) SetAdjacency(a, b int, w float64) error {
	if err := pl.ev.SetZoneAdjacency(a, b, w); err != nil {
		return err
	}
	pl.stats.AdjacencyEdits++
	pl.syncTele()
	return nil
}

// AddAdjacency accumulates dw > 0 onto interaction edge (a, b) — the
// observed-crossing feedback path of mobility-driven workloads. Same
// bookkeeping-only semantics as SetAdjacency.
func (pl *Planner) AddAdjacency(a, b int, dw float64) error {
	if err := pl.ev.AddZoneAdjacency(a, b, dw); err != nil {
		return err
	}
	pl.stats.AdjacencyEdits++
	pl.syncTele()
	return nil
}

// TrafficCut returns the maintained solution's cross-server cut weight —
// the summed weight of interaction edges whose endpoint zones are hosted
// apart. 0 without an adjacency graph.
func (pl *Planner) TrafficCut() float64 { return pl.ev.TrafficCut() }

// TrafficCost returns the weighted traffic term (TrafficWeight ×
// TrafficCut) as it enters the search objective; 0 when the term is off.
func (pl *Planner) TrafficCost() float64 { return pl.ev.TrafficCost() }

// CrossEdges returns how many interaction edges are currently cut, and the
// total edge count. O(edges).
func (pl *Planner) CrossEdges() (cut, total int) { return pl.ev.CrossEdges() }

// Optimize runs up to rounds local-search passes over the live solution —
// zone rehostings plus contact re-placement, under the full objective
// including the traffic term — and returns the number of zones rehosted.
// Unlike FullSolve it starts from the incumbent (no re-solve, no baseline
// re-anchor) and is traffic-aware, so periodic callers use it to
// consolidate interacting zones as observed adjacency weights accumulate.
func (pl *Planner) Optimize(rounds int) int {
	if rounds <= 0 {
		return 0
	}
	before := pl.ZoneServers()
	pl.ev.LocalSearch(rounds)
	moved := 0
	for z, s := range before {
		if pl.ev.ZoneHost(z) != s {
			moved++
		}
	}
	pl.stats.ZoneHandoffs += moved
	pl.syncTele()
	return moved
}

// Contact returns client j's current contact server.
func (pl *Planner) Contact(j int) int { return pl.ev.Contact(j) }

// ZoneHost returns the server currently hosting zone z.
func (pl *Planner) ZoneHost(z int) int { return pl.ev.ZoneHost(z) }

// ZoneServers returns a fresh copy of the current zone hosting.
func (pl *Planner) ZoneServers() []int {
	out := make([]int, pl.prob.NumZones)
	for z := range out {
		out[z] = pl.ev.ZoneHost(z)
	}
	return out
}

// ClientDelay returns client j's current effective delay.
func (pl *Planner) ClientDelay(j int) float64 { return pl.ev.ClientDelay(j) }

// NumClients returns the current population.
func (pl *Planner) NumClients() int { return pl.ev.NumClients() }

// PQoS returns the maintained solution's fraction of clients in bound.
func (pl *Planner) PQoS() float64 { return pl.ev.PQoS() }

// WithQoS returns the absolute count of clients in bound.
func (pl *Planner) WithQoS() int { return pl.ev.WithQoS() }

// Utilization returns total server load over total AVAILABLE capacity: a
// draining server's capacity has left the fleet until it is uncordoned,
// so utilization rises during a rolling deploy exactly as a real fleet's
// does.
func (pl *Planner) Utilization() float64 {
	c := pl.prob.TotalCapacity()
	for i, d := range pl.ev.Cordons() {
		if d {
			c -= pl.prob.ServerCaps[i]
		}
	}
	if c > 0 {
		return pl.ev.TotalLoad() / c
	}
	return 0
}

// utilSpread returns max−min per-server utilization (load/capacity) over
// the non-draining fleet — the imbalance the spread guard watches. 0 with
// fewer than two available servers.
func (pl *Planner) utilSpread() float64 {
	lo, hi, n := 0.0, 0.0, 0
	for i, d := range pl.ev.Cordons() {
		if d {
			continue
		}
		u := pl.ev.ServerLoad(i) / pl.prob.ServerCaps[i]
		if n == 0 || u < lo {
			lo = u
		}
		if n == 0 || u > hi {
			hi = u
		}
		n++
	}
	if n < 2 {
		return 0
	}
	return hi - lo
}

// Stats returns the planner's counters.
func (pl *Planner) Stats() Stats { return pl.stats }

// Drift returns the guard inputs of Stats: how far pQoS sits below the last
// full solve's level and the current utilization spread.
func (pl *Planner) Drift() (pqos, utilSpread float64) {
	return pl.stats.LastDriftPQoS, pl.stats.LastUtilSpread
}

// LastAdoption reports what the most recent full re-solve changed (zero
// before the first one on a live evaluator).
func (pl *Planner) LastAdoption() core.Adoption { return pl.adopted }

// Assignment returns a fresh copy of the maintained solution, in the
// planner's dense client order.
func (pl *Planner) Assignment() *core.Assignment { return pl.ev.Assignment() }

// Problem exposes the planner's problem mirror. Callers must treat it as
// read-only; it is kept consistent with the evaluator by the event API.
func (pl *Planner) Problem() *core.Problem { return pl.prob }

// Evaluator exposes the underlying evaluator for metrics readers and
// equivalence tests. Callers must not apply moves through it.
func (pl *Planner) Evaluator() *core.Evaluator { return pl.ev }

// Audit is core.Evaluator.Audit plus the planner's drain invariant: a
// cordoned server hosts no zone and is no client's contact, so its rebuilt
// load, against which the evaluator's is audited, is zero. It writes
// nothing; O(clients × servers).
func (pl *Planner) Audit() error {
	ev := pl.ev
	if err := ev.Audit(); err != nil {
		return err
	}
	for z := 0; z < pl.prob.NumZones; z++ {
		if s := ev.ZoneHost(z); ev.Cordoned(s) {
			return fmt.Errorf("repair: audit: cordoned server %d hosts zone %d", s, z)
		}
	}
	for j := 0; j < ev.NumClients(); j++ {
		if s := ev.Contact(j); ev.Cordoned(s) {
			return fmt.Errorf("repair: audit: cordoned server %d is client %d's contact", s, j)
		}
	}
	return nil
}
