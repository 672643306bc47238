package sim

import (
	"fmt"
	"io"
	"slices"

	"dvecap/internal/autoscale"
	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/repair"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// ChurnConfig parameterises the churn driver's stochastic processes.
type ChurnConfig struct {
	// JoinRate is the Poisson client arrival rate, clients/second.
	// Exclusive with Arrivals.
	JoinRate float64
	// Arrivals, when set, replaces the constant JoinRate with a
	// time-varying trace — diurnal tide plus flash crowds (autoscale.go).
	// JoinRate must be 0.
	Arrivals *ArrivalTrace
	// Autoscale, when set, arms the capacity control loop: the last
	// SpareServers world servers start drained as a warm pool and a
	// reconciler (or the clairvoyant oracle) drives drain/uncordon on the
	// planner every EverySec. Requires Repair mode; exclusive with the
	// rolling-deploy schedule (both own the drained set).
	Autoscale *AutoscaleConfig
	// MeanSessionSec is the mean client session length; each client leaves
	// at total rate population/MeanSessionSec.
	MeanSessionSec float64
	// MoveRatePerClient is each client's zone-migration rate, moves/second.
	MoveRatePerClient float64
	// ReassignEverySec re-runs the assignment algorithm at this period.
	ReassignEverySec float64
	// HandoffFreezeSec models the cost of migrating a zone's authoritative
	// state between servers: for this long after a reassignment moves a
	// zone, that zone's clients are counted without QoS (the zone is
	// frozen mid-handoff). 0 disables the model, making re-execution free
	// as the paper implicitly assumes.
	HandoffFreezeSec float64
	// SampleEverySec adds periodic "tick" quality samples between
	// reassignments, so sample means are genuine time averages (without
	// it, samples cluster at reassignment instants). 0 disables ticks.
	SampleEverySec float64
	// StickyBonus, when > 0, replaces the algorithm's initial phase on
	// re-executions with core.StickyGreZ(current, StickyBonus): zones stay
	// on their server unless a move improves the IAP cost by more than the
	// bonus. Meaningful with HandoffFreezeSec; see DESIGN.md §5.
	StickyBonus float64
	// Repair switches the driver from periodic full re-solves to the
	// incremental churn-repair subsystem (DESIGN.md §7): every join, leave
	// and move is applied through a repair.Planner in O(affected), and the
	// ReassignEverySec tick becomes the fallback cadence — it samples
	// quality and runs a full two-phase re-solve only when pQoS has
	// drifted past the threshold since the last full solve. With
	// HandoffFreezeSec > 0, repair-mode zone freezes are applied at
	// sampling granularity (the driver notices planner-side rehostings
	// when it syncs for a sample).
	Repair bool
	// RepairDriftPQoS is the drift threshold the fallback tick checks: a
	// full re-solve runs once pQoS falls more than this far below the last
	// full solve's level. 0 means the default 0.02.
	RepairDriftPQoS float64
	// RollingDeployEverySec arms the capacity-churn schedule (repair mode
	// only): every period, the next server in round-robin order is DRAINED
	// through the planner's topology events — its capacity leaves the
	// fleet, hosted zones evacuate in O(affected), forwarding contacts
	// re-attach — and DrainDowntimeSec later it is uncordoned with its
	// capacity restored. One server is down at a time (a deploy slot is
	// skipped while the previous server is still down), which is exactly a
	// rolling deploy; experiments measure pQoS straight through it. 0
	// disables capacity churn.
	RollingDeployEverySec float64
	// DrainDowntimeSec is how long a drained server stays down before it
	// is uncordoned. Required (> 0, < RollingDeployEverySec) when
	// RollingDeployEverySec is set.
	DrainDowntimeSec float64
	// Telemetry, when set, is attached to the repair planner (repair mode)
	// and fed live dvecap_sim_* gauges — virtual time, population, pQoS,
	// utilization — refreshed at every quality sample. Observation only:
	// results are bit-identical with or without it.
	Telemetry *telemetry.Registry
	// MetricsLog, when set (with Telemetry), streams one Prometheus-text
	// snapshot of the registry per periodic tick, each preceded by a
	// "# tick t=<virtual seconds>" comment line — a scrape series over
	// virtual time for offline analysis.
	MetricsLog io.Writer
}

// repairDrift resolves the configured drift threshold.
func (c ChurnConfig) repairDrift() float64 {
	if c.RepairDriftPQoS > 0 {
		return c.RepairDriftPQoS
	}
	return 0.02
}

// Validate reports the first invalid rate.
func (c ChurnConfig) Validate() error {
	switch {
	case c.JoinRate < 0:
		return fmt.Errorf("sim: JoinRate = %v, want >= 0", c.JoinRate)
	case c.MeanSessionSec <= 0:
		return fmt.Errorf("sim: MeanSessionSec = %v, want > 0", c.MeanSessionSec)
	case c.MoveRatePerClient < 0:
		return fmt.Errorf("sim: MoveRatePerClient = %v, want >= 0", c.MoveRatePerClient)
	case c.ReassignEverySec <= 0:
		return fmt.Errorf("sim: ReassignEverySec = %v, want > 0", c.ReassignEverySec)
	case c.HandoffFreezeSec < 0:
		return fmt.Errorf("sim: HandoffFreezeSec = %v, want >= 0", c.HandoffFreezeSec)
	case c.SampleEverySec < 0:
		return fmt.Errorf("sim: SampleEverySec = %v, want >= 0", c.SampleEverySec)
	case c.StickyBonus < 0:
		return fmt.Errorf("sim: StickyBonus = %v, want >= 0", c.StickyBonus)
	case c.RepairDriftPQoS < 0:
		return fmt.Errorf("sim: RepairDriftPQoS = %v, want >= 0", c.RepairDriftPQoS)
	case c.RollingDeployEverySec < 0:
		return fmt.Errorf("sim: RollingDeployEverySec = %v, want >= 0", c.RollingDeployEverySec)
	}
	if c.RollingDeployEverySec > 0 {
		switch {
		case !c.Repair:
			return fmt.Errorf("sim: RollingDeployEverySec requires Repair mode (capacity churn runs through the planner's topology events)")
		case c.DrainDowntimeSec <= 0:
			return fmt.Errorf("sim: DrainDowntimeSec = %v, want > 0 with a rolling-deploy schedule", c.DrainDowntimeSec)
		case c.DrainDowntimeSec >= c.RollingDeployEverySec:
			return fmt.Errorf("sim: DrainDowntimeSec %v >= RollingDeployEverySec %v (server would never return before the next drain)",
				c.DrainDowntimeSec, c.RollingDeployEverySec)
		}
	}
	if c.Arrivals != nil {
		if c.JoinRate != 0 {
			return fmt.Errorf("sim: JoinRate = %v with an arrival trace, want 0 (the trace owns the arrival process)", c.JoinRate)
		}
		if err := c.Arrivals.Validate(); err != nil {
			return err
		}
	}
	if c.Autoscale != nil {
		switch {
		case !c.Repair:
			return fmt.Errorf("sim: Autoscale requires Repair mode (scaling runs through the planner's topology events)")
		case c.RollingDeployEverySec > 0:
			return fmt.Errorf("sim: Autoscale and RollingDeployEverySec are exclusive (both own the drained server set)")
		}
		if err := c.Autoscale.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Sample is one observation of system quality, taken around churn and
// reassignment events.
type Sample struct {
	Time        float64
	Event       string // "initial", "pre-reassign", "post-reassign"
	Clients     int
	PQoS        float64
	Utilization float64
}

// Driver animates a world with churn and periodic reassignment.
type Driver struct {
	eng   *Engine
	world *dve.World
	algo  core.TwoPhase
	opt   core.Options
	cfg   ChurnConfig
	rng   *xrand.RNG

	// current assignment state, kept index-aligned with the world.
	zoneServer []int
	contact    []int

	samples []Sample
	// contactMoves records, per re-execution, how many surviving clients
	// had to switch contact servers — the disruption cost of §3.4's
	// periodic reassignment.
	contactMoves []int
	// zoneMoves records, per re-execution, how many zones changed servers
	// (full-solve mode; repair mode counts through the planner).
	zoneMoves []int
	// zoneFrozenUntil[z] is the virtual time until which zone z is frozen
	// by an in-flight handoff (HandoffFreezeSec > 0 only).
	zoneFrozenUntil []float64
	errs            []error

	// Repair mode: the incremental planner, the planner handle of each
	// world-indexed client (compacted in lockstep with the world on leaves),
	// and the per-zone population the bandwidth model prices from.
	planner *repair.Planner
	handles []int
	zonePop []int
	csBuf   []float64

	// Rolling-deploy state: the next server to drain (round-robin) and
	// the one currently down (-1 when the fleet is whole).
	deployNext int
	deployDown int

	// Autoscale state: the hysteresis reconciler (nil in oracle mode or
	// without autoscaling), the thinning envelope rate for the arrival
	// trace, the active-fleet time integral behind ServerHours, and the
	// oracle's verb count.
	autoRec     *autoscale.Reconciler
	arrivalMax  float64
	activeCount int
	serverSecs  float64
	lastActiveT float64
	oracleMoves int

	// Reused buffers: the problem snapshot (its k×m delay matrix dominates
	// per-cycle allocation), the algorithms' scratch workspace, and the
	// evaluation metrics. Rebuilt in place every reassignment and sample.
	prob  core.Problem
	ws    *core.Workspace
	evalM core.Metrics
}

// NewDriver computes an initial assignment and prepares the churn
// processes; call Start then eng.Run. opt flows into every solve and, in
// repair mode, into the planner — so opt.Workers shards the assignment
// scans (core.Options.Workers; DESIGN.md §8) without changing any result:
// runs are bit-identical for every worker count.
func NewDriver(eng *Engine, world *dve.World, algo core.TwoPhase, opt core.Options, cfg ChurnConfig, rng *xrand.RNG) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Driver{eng: eng, world: world, algo: algo, opt: opt, cfg: cfg, rng: rng, ws: core.NewWorkspace(), deployDown: -1}
	d.opt.Scratch = d.ws
	d.activeCount = world.Cfg.Servers
	spares := 0
	if cfg.Autoscale != nil {
		spares = cfg.Autoscale.SpareServers
		if spares >= world.Cfg.Servers {
			return nil, fmt.Errorf("sim: SpareServers = %d with only %d world servers (at least one must start active)", spares, world.Cfg.Servers)
		}
		// The initial solve must leave the pool empty: the spares — the
		// LAST SpareServers world servers — are cordoned for it, then
		// formally drained through the planner below (pure flag work, since
		// nothing was placed on them).
		mask := make([]bool, world.Cfg.Servers)
		for i := world.Cfg.Servers - spares; i < world.Cfg.Servers; i++ {
			mask[i] = true
		}
		d.opt.Cordoned = mask
	}
	if err := d.reassign("initial"); err != nil {
		return nil, err
	}
	// The cordon mask was for the initial solve only — the planner tracks
	// drains itself from here (a stale mask would pin the spares out of
	// every future full solve even after admission).
	d.opt.Cordoned = nil
	if cfg.Repair {
		// The initial full solve just ran on d.prob; the planner adopts it
		// and takes over per-event re-optimisation from here. The planner's
		// own per-event guard stays disarmed — in the driver, drift is
		// checked only at the ReassignEverySec fallback tick.
		pl, err := repair.NewWithAssignment(repair.Config{
			Algo:        algo,
			Opt:         d.opt,
			StickyBonus: cfg.StickyBonus,
		}, &d.prob, d.Assignment(), d.rng.Split())
		if err != nil {
			return nil, err
		}
		d.planner = pl
		if cfg.Telemetry != nil {
			pl.SetTelemetry(cfg.Telemetry)
		}
		// The world's current clients hold handles 0..k-1 in world order,
		// exactly how NewWithAssignment issued them.
		d.handles = make([]int, world.NumClients())
		for j := range d.handles {
			d.handles[j] = j
		}
		d.zonePop = world.ZonePopulations()
		d.csBuf = make([]float64, world.Cfg.Servers)
		if cfg.HandoffFreezeSec > 0 && d.zoneFrozenUntil == nil {
			d.zoneFrozenUntil = make([]float64, world.Cfg.Zones)
		}
	}
	if cfg.Autoscale != nil {
		for i := world.Cfg.Servers - spares; i < world.Cfg.Servers; i++ {
			if err := d.planner.DrainServer(i); err != nil {
				return nil, fmt.Errorf("sim: pooling spare %d: %w", i, err)
			}
		}
		d.activeCount -= spares
		if !cfg.Autoscale.Oracle {
			rec, err := autoscale.New(cfg.Autoscale.Policy, driverActuator{d}, cfg.Telemetry)
			if err != nil {
				return nil, err
			}
			d.autoRec = rec
		}
	}
	return d, nil
}

// Start schedules the recurring processes on the engine.
func (d *Driver) Start() {
	switch {
	case d.cfg.Arrivals != nil:
		d.arrivalMax = d.cfg.Arrivals.MaxRate()
		d.eng.Schedule(d.rng.Exp(d.arrivalMax), d.joinTraceEvent)
	case d.cfg.JoinRate > 0:
		d.eng.Schedule(d.rng.Exp(d.cfg.JoinRate), d.joinEvent)
	}
	d.scheduleLeave()
	d.scheduleMove()
	d.eng.Schedule(d.cfg.ReassignEverySec, d.reassignEvent)
	if d.cfg.SampleEverySec > 0 {
		d.eng.Schedule(d.cfg.SampleEverySec, d.tickEvent)
	}
	if d.cfg.RollingDeployEverySec > 0 {
		d.eng.Schedule(d.cfg.RollingDeployEverySec, d.deployEvent)
	}
	if d.cfg.Autoscale != nil {
		d.eng.Schedule(d.cfg.Autoscale.EverySec, d.autoscaleEvent)
	}
}

// deployEvent drains the next server in the rolling deploy. A slot is
// skipped (deploy paused) while the previous server is still down —
// exactly one server is ever out of the fleet.
func (d *Driver) deployEvent() {
	if d.deployDown < 0 {
		victim := d.deployNext
		if err := d.planner.DrainServer(victim); err != nil {
			d.errs = append(d.errs, err)
		} else {
			d.deployDown = victim
			d.sample("drain")
			d.eng.Schedule(d.cfg.DrainDowntimeSec, d.restoreEvent)
		}
		d.deployNext = (victim + 1) % d.world.Cfg.Servers
	}
	d.eng.Schedule(d.cfg.RollingDeployEverySec, d.deployEvent)
}

// restoreEvent uncordons the server the deploy took down.
func (d *Driver) restoreEvent() {
	if d.deployDown < 0 {
		return
	}
	if err := d.planner.UncordonServer(d.deployDown); err != nil {
		d.errs = append(d.errs, err)
	}
	d.deployDown = -1
	d.sample("uncordon")
}

func (d *Driver) tickEvent() {
	d.sample("tick")
	if d.cfg.MetricsLog != nil && d.cfg.Telemetry != nil {
		// One Prometheus-text snapshot per tick, stamped with virtual time.
		// Failures are absorbed like other non-fatal driver errors: a broken
		// metrics sink must not abort a simulation.
		if _, err := fmt.Fprintf(d.cfg.MetricsLog, "# tick t=%.3f\n", d.eng.Now()); err != nil {
			d.errs = append(d.errs, fmt.Errorf("sim: metrics log: %w", err))
		} else if err := d.cfg.Telemetry.WritePrometheus(d.cfg.MetricsLog); err != nil {
			d.errs = append(d.errs, fmt.Errorf("sim: metrics log: %w", err))
		}
	}
	d.eng.Schedule(d.cfg.SampleEverySec, d.tickEvent)
}

// Samples returns the recorded observations in time order.
func (d *Driver) Samples() []Sample { return d.samples }

// Errors returns any non-fatal errors the driver absorbed (e.g. an
// infeasible reassignment under ErrorOnOverflow).
func (d *Driver) Errors() []error { return d.errs }

// Assignment returns the current assignment (aligned with the world's
// current client indexing).
func (d *Driver) Assignment() *core.Assignment {
	if d.planner != nil {
		d.syncFromPlanner()
	}
	return &core.Assignment{
		ZoneServer:    append([]int(nil), d.zoneServer...),
		ClientContact: append([]int(nil), d.contact...),
	}
}

// RepairStats returns the planner's counters; ok is false outside repair
// mode.
func (d *Driver) RepairStats() (st repair.Stats, ok bool) {
	if d.planner == nil {
		return repair.Stats{}, false
	}
	return d.planner.Stats(), true
}

// TotalZoneHandoffs returns how many zone rehostings the run has performed
// so far: per-reassign diffs in full-solve mode, the planner's count
// (localized moves plus full-solve diffs) in repair mode.
func (d *Driver) TotalZoneHandoffs() int {
	if d.planner != nil {
		return d.planner.Stats().ZoneHandoffs
	}
	total := 0
	for _, m := range d.zoneMoves {
		total += m
	}
	return total
}

func (d *Driver) joinEvent() {
	d.admitJoin()
	if d.cfg.JoinRate > 0 {
		d.eng.Schedule(d.rng.Exp(d.cfg.JoinRate), d.joinEvent)
	}
}

// admitJoin admits one client — shared by the constant-rate and
// trace-driven arrival processes.
func (d *Driver) admitJoin() {
	idx := d.world.Join(d.rng, 1)
	if d.planner != nil {
		if err := d.repairJoin(idx[0]); err != nil {
			d.errs = append(d.errs, err)
		}
		if err := d.planner.TakeSolveErr(); err != nil {
			d.errs = append(d.errs, err)
		}
	} else {
		// Until the next reassignment a new client connects straight to its
		// zone's current server (the only server that can serve it at all).
		for _, j := range idx {
			d.contact = append(d.contact, d.zoneServer[d.world.ClientZones[j]])
		}
	}
}

// The repair-mode churn bridge. A client's bandwidth requirement depends on
// its zone's population (the quadratic client-server model), so a membership
// change re-prices the zone's incumbents BEFORE the planner event: the
// repair pass inside the event then judges feasibility against exact loads.

// reprice brings zone's clients to the requirement of its current
// population and returns it; an emptied zone has no one to re-price.
func (d *Driver) reprice(zone int) (float64, error) {
	if d.zonePop[zone] == 0 {
		return 0, nil
	}
	rt := d.world.Cfg.ClientRTMbps(d.zonePop[zone])
	return rt, d.planner.RefreshZoneRT(zone, rt)
}

// repairJoin admits world client j, just placed by World.Join, with its
// ground-truth delay row.
func (d *Driver) repairJoin(j int) error {
	w := d.world
	zone := w.ClientZones[j]
	for i := range d.csBuf {
		d.csBuf[i] = w.Delays.RTT(w.ClientNodes[j], w.ServerNodes[i])
	}
	d.zonePop[zone]++
	rt, err := d.reprice(zone)
	if err != nil {
		return err
	}
	h, err := d.planner.Join(zone, rt, d.csBuf)
	if err != nil {
		return err
	}
	d.handles = append(d.handles, h)
	return nil
}

// repairLeave removes the client that held world index r before World.Leave
// forgot it. The handle map is compacted even when the removal errors, so
// the driver stays aligned with the world. The departing client is re-priced
// with its zone, so its smaller requirement is subtracted consistently.
func (d *Driver) repairLeave(r int) error {
	h := d.handles[r]
	d.handles = slices.Delete(d.handles, r, r+1)
	idx, err := d.planner.Index(h)
	if err != nil {
		return err
	}
	zone := d.planner.Problem().ClientZones[idx]
	d.zonePop[zone]--
	if _, err := d.reprice(zone); err != nil {
		return err
	}
	return d.planner.Leave(h)
}

// repairMove migrates world client j, whose world zone World.Move already
// changed: the vacated zone is re-priced to its shrunk population, the
// entered zone and the mover itself to the grown one.
func (d *Driver) repairMove(j int) error {
	h := d.handles[j]
	idx, err := d.planner.Index(h)
	if err != nil {
		return err
	}
	oldZone, newZone := d.planner.Problem().ClientZones[idx], d.world.ClientZones[j]
	if newZone == oldZone {
		return nil
	}
	d.zonePop[oldZone]--
	d.zonePop[newZone]++
	if _, err := d.reprice(oldZone); err != nil {
		return err
	}
	rt, err := d.reprice(newZone)
	if err != nil {
		return err
	}
	if err := d.planner.SetRT(h, rt); err != nil {
		return err
	}
	return d.planner.Move(h, newZone)
}

func (d *Driver) scheduleLeave() {
	pop := d.world.NumClients()
	if pop == 0 {
		// No one to leave; re-arm after an average inter-join gap so the
		// process resumes once the population recovers.
		d.eng.Schedule(d.cfg.MeanSessionSec, d.scheduleLeave)
		return
	}
	rate := float64(pop) / d.cfg.MeanSessionSec
	d.eng.Schedule(d.rng.Exp(rate), d.leaveEvent)
}

func (d *Driver) leaveEvent() {
	if d.world.NumClients() > 0 {
		removed, err := d.world.Leave(d.rng, 1)
		switch {
		case err != nil:
			d.errs = append(d.errs, err)
		case d.planner != nil:
			if err := d.repairLeave(removed[0]); err != nil {
				d.errs = append(d.errs, err)
			}
			if err := d.planner.TakeSolveErr(); err != nil {
				d.errs = append(d.errs, err)
			}
		default:
			d.contact = dve.Compact(d.contact, removed)
		}
	}
	d.scheduleLeave()
}

func (d *Driver) scheduleMove() {
	pop := d.world.NumClients()
	if pop == 0 || d.cfg.MoveRatePerClient == 0 {
		d.eng.Schedule(d.cfg.MeanSessionSec, d.scheduleMove)
		return
	}
	rate := float64(pop) * d.cfg.MoveRatePerClient
	d.eng.Schedule(d.rng.Exp(rate), d.moveEvent)
}

func (d *Driver) moveEvent() {
	if d.world.NumClients() > 0 {
		moved, err := d.world.Move(d.rng, 1)
		switch {
		case err != nil:
			d.errs = append(d.errs, err)
		case d.planner != nil:
			if err := d.repairMove(moved[0]); err != nil {
				d.errs = append(d.errs, err)
			}
			if err := d.planner.TakeSolveErr(); err != nil {
				d.errs = append(d.errs, err)
			}
		default:
			// A moved avatar lands on its new zone's server until refined.
			for _, j := range moved {
				d.contact[j] = d.zoneServer[d.world.ClientZones[j]]
			}
		}
	}
	d.scheduleMove()
}

func (d *Driver) reassignEvent() {
	// One snapshot serves the pre-reassign sample, the solve, and the
	// post-reassign sample: no churn event can fire inside this event, so
	// the world — and hence the k×m delay matrix — cannot change.
	d.world.ProblemInto(&d.prob)
	if d.planner != nil {
		// Repair mode: events were repaired incrementally as they arrived;
		// the tick is the fallback cadence — it samples quality and runs a
		// full re-solve only when repair let pQoS drift past the threshold.
		d.syncFromPlanner()
		d.sampleWith(&d.prob, "pre-reassign")
		// A "post-reassign" sample is emitted only when the fallback solve
		// actually ran, so pre/post pairs always bracket a real solve.
		if d.planner.Stats().LastDriftPQoS > d.cfg.repairDrift() {
			if err := d.planner.FullSolve(); err != nil {
				d.errs = append(d.errs, err)
			}
			d.syncFromPlanner()
			d.sampleWith(&d.prob, "post-reassign")
		}
	} else {
		d.sampleWith(&d.prob, "pre-reassign")
		if err := d.reassignWith(&d.prob, "post-reassign"); err != nil {
			d.errs = append(d.errs, err)
		}
	}
	d.eng.Schedule(d.cfg.ReassignEverySec, d.reassignEvent)
}

// syncFromPlanner projects the planner's maintained solution back onto the
// driver's world-indexed assignment state. With the handoff model enabled,
// zones the planner rehosted since the last sync enter their freeze window
// now (repair-mode freezes are at sampling granularity).
func (d *Driver) syncFromPlanner() {
	n := d.world.Cfg.Zones
	freezeUntil := d.eng.Now() + d.cfg.HandoffFreezeSec
	for z := 0; z < n; z++ {
		s := d.planner.ZoneHost(z)
		if d.zoneFrozenUntil != nil && d.zoneServer[z] != s {
			d.zoneFrozenUntil[z] = freezeUntil
		}
		d.zoneServer[z] = s
	}
	k := len(d.handles)
	if cap(d.contact) < k {
		d.contact = make([]int, k)
	}
	d.contact = d.contact[:k]
	for j, h := range d.handles {
		c, err := d.planner.Contact(h)
		if err != nil {
			d.errs = append(d.errs, err)
			continue
		}
		d.contact[j] = c
	}
}

// reassign snapshots the current world, then recomputes the full two-phase
// assignment and records a sample labelled `label`.
func (d *Driver) reassign(label string) error {
	d.world.ProblemInto(&d.prob)
	return d.reassignWith(&d.prob, label)
}

// reassignWith is reassign on an already-built snapshot of the world.
func (d *Driver) reassignWith(p *core.Problem, label string) error {
	algo := d.algo
	if d.cfg.StickyBonus > 0 && label != "initial" && len(d.zoneServer) == p.NumZones {
		algo = d.algo.WithSticky(append([]int(nil), d.zoneServer...), d.cfg.StickyBonus)
	}
	a, err := algo.Solve(d.rng.Split(), p, d.opt)
	if err != nil {
		return err
	}
	if len(d.contact) == len(a.ClientContact) && label != "initial" {
		moves := 0
		for j := range d.contact {
			if d.contact[j] != a.ClientContact[j] {
				moves++
			}
		}
		d.contactMoves = append(d.contactMoves, moves)
	}
	if len(d.zoneServer) == len(a.ZoneServer) && label != "initial" {
		moves := 0
		for z := range d.zoneServer {
			if d.zoneServer[z] != a.ZoneServer[z] {
				moves++
			}
		}
		d.zoneMoves = append(d.zoneMoves, moves)
	}
	if d.cfg.HandoffFreezeSec > 0 {
		if d.zoneFrozenUntil == nil {
			d.zoneFrozenUntil = make([]float64, d.world.Cfg.Zones)
		}
		if label != "initial" && d.zoneServer != nil {
			until := d.eng.Now() + d.cfg.HandoffFreezeSec
			for z, s := range a.ZoneServer {
				if z < len(d.zoneServer) && d.zoneServer[z] != s {
					d.zoneFrozenUntil[z] = until
				}
			}
		}
	}
	d.zoneServer = a.ZoneServer
	d.contact = a.ClientContact
	d.sampleWith(p, label)
	return nil
}

// frozen reports whether zone z is mid-handoff at the current time.
func (d *Driver) frozen(z int) bool {
	return d.zoneFrozenUntil != nil && z < len(d.zoneFrozenUntil) &&
		d.zoneFrozenUntil[z] > d.eng.Now()
}

// ContactMovesPerReassign returns the per-re-execution contact-switch
// counts, in event order.
func (d *Driver) ContactMovesPerReassign() []int {
	return append([]int(nil), d.contactMoves...)
}

// MeanContactMovesPerReassign averages the disruption per re-execution
// (0 when no reassignment has happened yet).
func (d *Driver) MeanContactMovesPerReassign() float64 {
	if len(d.contactMoves) == 0 {
		return 0
	}
	sum := 0
	for _, m := range d.contactMoves {
		sum += m
	}
	return float64(sum) / float64(len(d.contactMoves))
}

// sample evaluates the current assignment against the current world.
func (d *Driver) sample(label string) {
	if d.planner != nil {
		d.syncFromPlanner()
	}
	d.world.ProblemInto(&d.prob)
	d.sampleWith(&d.prob, label)
}

// sampleWith is sample on an already-built snapshot of the world.
func (d *Driver) sampleWith(p *core.Problem, label string) {
	a := &core.Assignment{ZoneServer: d.zoneServer, ClientContact: d.contact}
	if len(d.contact) != p.NumClients() {
		// Defensive: misaligned state would make Evaluate panic.
		d.errs = append(d.errs, fmt.Errorf("sim: contact state has %d entries, world has %d clients",
			len(d.contact), p.NumClients()))
		return
	}
	d.ws.EvaluateInto(p, a, &d.evalM)
	m := &d.evalM
	pqos := m.PQoS
	if d.zoneFrozenUntil != nil && p.NumClients() > 0 {
		// Handoff model: clients of frozen zones have no QoS regardless of
		// their delay — their zone's state is mid-migration.
		withQoS := 0
		for j, z := range p.ClientZones {
			if d.frozen(z) {
				continue
			}
			if m.Delays[j] <= p.D {
				withQoS++
			}
		}
		pqos = float64(withQoS) / float64(p.NumClients())
	}
	d.samples = append(d.samples, Sample{
		Time:        d.eng.Now(),
		Event:       label,
		Clients:     p.NumClients(),
		PQoS:        pqos,
		Utilization: m.Utilization,
	})
	if reg := d.cfg.Telemetry; reg != nil {
		reg.Gauge("dvecap_sim_time_seconds", "Virtual time of the latest quality sample.").Set(d.eng.Now())
		reg.Gauge("dvecap_sim_clients", "Client population at the latest quality sample.").Set(float64(p.NumClients()))
		reg.Gauge("dvecap_sim_pqos", "pQoS at the latest quality sample (handoff freezes included).").Set(pqos)
		reg.Gauge("dvecap_sim_utilization", "Resource utilization R at the latest quality sample.").Set(m.Utilization)
		reg.Counter("dvecap_sim_samples_total", "Quality samples recorded, by trigger.", "event", label).Inc()
	}
}
