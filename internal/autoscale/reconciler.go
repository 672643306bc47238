package autoscale

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"dvecap/telemetry"
)

// ErrRetireUnsupported is returned by actuators that keep drained
// servers warm forever (the simulation driver, whose world indexing
// cannot renumber). The reconciler stops trying to retire that target.
var ErrRetireUnsupported = errors.New("autoscale: retire unsupported")

// Actuator is the fleet the reconciler drives. Implementations must be
// deterministic functions of fleet state: given the same state, Observe
// returns the same snapshot and ScaleUp/ScaleDown pick the same target.
type Actuator interface {
	// Observe snapshots the fleet (the reconciler fills Observation.Tick).
	Observe() Observation
	// ScaleUp admits one spare — uncordon a warm spare, or warm-register
	// and admit a cold spec — and returns the target's name.
	ScaleUp() (target string, err error)
	// ScaleDown drains one active server (deterministic victim choice:
	// least-loaded, ties to the smallest name/index) back into the warm
	// pool and returns its name.
	ScaleDown() (target string, err error)
	// Retire removes a long-drained server from the topology, returning
	// its spec to the cold pool. ErrRetireUnsupported keeps it warm.
	Retire(target string) error
}

// Fleet is the planner state an actuator observes and chooses targets from;
// *repair.Planner satisfies it. Servers are addressed by dense index.
type Fleet interface {
	NumClients() int
	NumServers() int
	Draining(i int) bool
	ServerLoad(i int) float64
	Utilization() float64
	PQoS() float64
	Drift() (pqos, utilSpread float64)
}

// Observe snapshots a fleet for the policy: drained servers are its spares.
func Observe(f Fleet) Observation {
	spares := 0
	for i := 0; i < f.NumServers(); i++ {
		if f.Draining(i) {
			spares++
		}
	}
	drift, spread := f.Drift()
	return Observation{
		Clients:       f.NumClients(),
		Utilization:   f.Utilization(),
		UtilSpread:    spread,
		PQoS:          f.PQoS(),
		DriftPQoS:     drift,
		ActiveServers: f.NumServers() - spares,
		SpareServers:  spares,
	}
}

// Target picks the server a scaling verb acts on: for a scale-up the
// lowest-index drained server, for a scale-down the least-loaded active one,
// ties to the lowest index — index order keeps runs reproducible whatever the
// drain history.
func Target(f Fleet, up bool) (int, error) {
	victim, best := -1, 0.0
	for i := 0; i < f.NumServers(); i++ {
		if f.Draining(i) != up {
			continue
		}
		if l := f.ServerLoad(i); victim < 0 || (!up && l < best) {
			victim, best = i, l
		}
	}
	if victim < 0 {
		return 0, fmt.Errorf("autoscale: no server to act on (scale-up=%v)", up)
	}
	return victim, nil
}

// Reconciler binds a Policy to an Actuator and keeps the books: the
// decision log, the drained-server retire grace, hold/error counters and
// the dvecap_autoscale_* metric series. One Tick is one observe→decide→
// actuate cycle; RunTicks drives Ticks from an injectable clock exactly
// like the director's reassign loop.
type Reconciler struct {
	mu  sync.Mutex
	pol *Policy
	act Actuator

	paused    bool
	ticks     int
	decisions []Decision
	// drainedAge tracks servers OUR scale-downs drained, by target name →
	// ticks since the drain, for the RetireAfterTicks grace. Servers
	// drained by other actors (deploys, operators) are never retired.
	drainedAge map[string]int

	tele recTele
}

// recTele holds the reconciler's metric handles; the zero value is fully
// disabled (nil registry).
type recTele struct {
	reg       *telemetry.Registry
	ticksT    *telemetry.Counter
	errorsT   *telemetry.Counter
	spares    *telemetry.Gauge
	active    *telemetry.Gauge
	highStrk  *telemetry.Gauge
	lowStrk   *telemetry.Gauge
	upCool    *telemetry.Gauge
	downCool  *telemetry.Gauge
	pausedG   *telemetry.Gauge
	decisionT func(action string) *telemetry.Counter
	holdT     func(reason string) *telemetry.Counter
}

// New builds a reconciler over act with the given policy config. reg may
// be nil (no metrics).
func New(cfg Config, act Actuator, reg *telemetry.Registry) (*Reconciler, error) {
	pol, err := NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	if act == nil {
		return nil, fmt.Errorf("autoscale: nil actuator")
	}
	r := &Reconciler{pol: pol, act: act, drainedAge: make(map[string]int)}
	if reg != nil {
		r.tele = recTele{
			reg:      reg,
			ticksT:   reg.Counter("dvecap_autoscale_ticks_total", "Reconcile cycles run."),
			errorsT:  reg.Counter("dvecap_autoscale_errors_total", "Actuation failures (decision fired, verb errored)."),
			spares:   reg.Gauge("dvecap_autoscale_spare_pool", "Admittable spare servers (warm + cold) at the last observation."),
			active:   reg.Gauge("dvecap_autoscale_active_servers", "Active (non-drained) servers at the last observation."),
			highStrk: reg.Gauge("dvecap_autoscale_high_streak", "Consecutive high-water observations."),
			lowStrk:  reg.Gauge("dvecap_autoscale_low_streak", "Consecutive low-water observations."),
			upCool:   reg.Gauge("dvecap_autoscale_up_cooldown", "Ticks before another scale-up may fire."),
			downCool: reg.Gauge("dvecap_autoscale_down_cooldown", "Ticks before another scale-down may fire."),
			pausedG:  reg.Gauge("dvecap_autoscale_paused", "1 while the reconciler is paused by an operator."),
			decisionT: func(action string) *telemetry.Counter {
				return reg.Counter("dvecap_autoscale_decisions_total", "Topology decisions fired, by action.", "action", action)
			},
			holdT: func(reason string) *telemetry.Counter {
				return reg.Counter("dvecap_autoscale_holds_total", "Completed trigger windows that held instead of firing, by reason.", "reason", reason)
			},
		}
		// Pre-register the zero-valued series an operator dashboards before
		// the first fire, so scrapes see them from boot.
		r.tele.decisionT(ActionScaleUp.String())
		r.tele.decisionT(ActionScaleDown.String())
		r.tele.decisionT(ActionRetire.String())
		r.tele.pausedG.Set(0)
		o := act.Observe()
		r.tele.spares.Set(float64(o.SpareServers))
		r.tele.active.Set(float64(o.ActiveServers))
	}
	return r, nil
}

// Tick runs one observe→decide→actuate cycle and returns the decision
// (ActionNone with empty Reason when nothing happened). While paused,
// observation and bookkeeping still run — streaks and cooldowns stay
// live — but fired decisions are downgraded to holds with reason
// "paused".
func (r *Reconciler) Tick() (Decision, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	o := r.act.Observe()
	o.Tick = r.ticks
	r.ticks++
	d := r.pol.Observe(o)

	var err error
	switch {
	case r.paused && d.Action != ActionNone:
		d.Action, d.Reason = ActionNone, "paused"
	case d.Action == ActionScaleUp:
		d.Target, err = r.act.ScaleUp()
	case d.Action == ActionScaleDown:
		d.Target, err = r.act.ScaleDown()
		if err == nil && r.pol.Config().RetireAfterTicks > 0 {
			r.drainedAge[d.Target] = 0
		}
	}
	if err != nil {
		d.Action, d.Reason = ActionNone, "error: "+err.Error()
	} else if d.Action != ActionNone {
		r.decisions = append(r.decisions, d)
	}

	retired := r.ageDrained()
	r.syncTele(o, d, err, retired)
	return d, err
}

// ageDrained advances the retire grace on every server our scale-downs
// drained and retires the ones past it. Returns the retire decisions
// (appended to the log).
func (r *Reconciler) ageDrained() []Decision {
	grace := r.pol.Config().RetireAfterTicks
	if grace <= 0 || len(r.drainedAge) == 0 {
		return nil
	}
	// Deterministic sweep order: smallest target name first.
	names := make([]string, 0, len(r.drainedAge))
	for name := range r.drainedAge {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Decision
	for _, name := range names {
		r.drainedAge[name]++
		if r.drainedAge[name] <= grace {
			continue
		}
		err := r.act.Retire(name)
		switch {
		case errors.Is(err, ErrRetireUnsupported):
			delete(r.drainedAge, name) // stays warm, stop asking
		case err != nil:
			if r.tele.reg != nil {
				r.tele.errorsT.Inc()
			}
			delete(r.drainedAge, name) // the actuator refused (e.g. re-admitted); drop it
		default:
			d := Decision{Tick: r.ticks - 1, Action: ActionRetire, Reason: ReasonRetireAge, Target: name}
			r.decisions = append(r.decisions, d)
			out = append(out, d)
			delete(r.drainedAge, name)
		}
	}
	return out
}

// syncTele refreshes every metric after a tick.
func (r *Reconciler) syncTele(o Observation, d Decision, actErr error, retired []Decision) {
	// A scale-up admitting one of our recently drained servers cancels its
	// retire grace — it is active again.
	if d.Action == ActionScaleUp && d.Target != "" {
		delete(r.drainedAge, d.Target)
	}
	if r.tele.reg == nil {
		return
	}
	t := &r.tele
	t.ticksT.Inc()
	if actErr != nil {
		t.errorsT.Inc()
	}
	switch d.Action {
	case ActionScaleUp, ActionScaleDown:
		t.decisionT(d.Action.String()).Inc()
		// Spares/actives moved by exactly one; re-observing mid-tick would
		// cost another fleet lock, so adjust the gauges arithmetically.
		delta := 1.0
		if d.Action == ActionScaleDown {
			delta = -1
		}
		t.active.Set(float64(o.ActiveServers) + delta)
		t.spares.Set(float64(o.SpareServers) - delta)
	default:
		t.active.Set(float64(o.ActiveServers))
		t.spares.Set(float64(o.SpareServers))
		if d.Reason != "" {
			t.holdT(d.Reason).Inc()
		}
	}
	for range retired {
		t.decisionT(ActionRetire.String()).Inc()
	}
	hi, lo := r.pol.Streaks()
	up, down := r.pol.Cooldowns()
	t.highStrk.Set(float64(hi))
	t.lowStrk.Set(float64(lo))
	t.upCool.Set(float64(up))
	t.downCool.Set(float64(down))
}

// Decisions returns a copy of the fired-decision log (scale-ups,
// scale-downs, retires) in tick order.
func (r *Reconciler) Decisions() []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Decision(nil), r.decisions...)
}

// Ticks returns how many reconcile cycles have run.
func (r *Reconciler) Ticks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ticks
}

// Config returns the live policy configuration.
func (r *Reconciler) Config() Config {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pol.Config()
}

// SetConfig replaces the policy configuration mid-flight (the HTTP
// override surface). Hysteresis state resets — streaks and cooldowns
// restart from zero under the new watermarks; the decision log, tick
// count and retire bookkeeping survive.
func (r *Reconciler) SetConfig(cfg Config) error {
	pol, err := NewPolicy(cfg)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pol = pol
	return nil
}

// SetPaused pauses or resumes actuation. Paused, the reconciler keeps
// observing (streaks, cooldowns and metrics stay live) but fires
// nothing.
func (r *Reconciler) SetPaused(p bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused = p
	if r.tele.reg != nil {
		v := 0.0
		if p {
			v = 1
		}
		r.tele.pausedG.Set(v)
	}
}

// Paused reports whether actuation is paused.
func (r *Reconciler) Paused() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.paused
}

// Streaks exposes the policy's live hysteresis state.
func (r *Reconciler) Streaks() (high, low int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pol.Streaks()
}

// RunLoop reconciles every interval until ctx is cancelled — the
// production form, mirroring Director.RunReassignLoop.
func (r *Reconciler) RunLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	r.RunTicks(ctx, ticker.C)
}

// RunTicks is RunLoop with the clock injected: one reconcile cycle per
// value received, until ctx is cancelled or ticks is closed. Tests drive
// it with a plain channel.
func (r *Reconciler) RunTicks(ctx context.Context, ticks <-chan time.Time) {
	for {
		select {
		case <-ctx.Done():
			return
		case _, ok := <-ticks:
			if !ok {
				return
			}
			if _, err := r.Tick(); err != nil {
				log.Printf("autoscale: %v", err)
			}
		}
	}
}
