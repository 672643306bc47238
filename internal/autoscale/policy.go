// Package autoscale closes the provisioning loop over the live-topology
// verbs: a hysteresis policy watches planner state (utilization, pQoS,
// utilization spread, drift) and decides when the fleet should grow or
// shrink, and a Reconciler binds that policy to an actuator — the
// director's planner, or the simulation driver — that admits capacity
// from a warm-spare pool (UncordonServer: O(affected) flow-back, no
// measure-the-world step) and drains it back on sustained low water
// (DESIGN.md §14).
//
// The policy is a PURE state machine: its only inputs are the
// Observation snapshots it is fed, its only outputs are Decisions, and
// it holds no clock, no randomness and no references to the fleet. Since
// every planner quantity it observes is bit-identical for every worker
// count (DESIGN.md §8), the decision sequence is too — the determinism
// argument for the whole control plane reduces to "pure function of a
// deterministic input stream".
package autoscale

import (
	"encoding/json"
	"fmt"
)

// Config parameterises the hysteresis policy. The zero value of any
// field selects the documented default; Validate rejects contradictory
// settings.
type Config struct {
	// UtilHigh is the scale-up watermark: utilization at or above it is
	// "high water". Default 0.85.
	UtilHigh float64
	// UtilLow is the scale-down watermark: utilization at or below it is
	// "low water". Must stay below UtilHigh. Default 0.50.
	UtilLow float64
	// PQoSFloor, when > 0, arms the quality trigger: pQoS below the floor
	// counts as high water even when utilization is fine (erosion usually
	// means capacity is in the wrong place or drained). 0 disables.
	PQoSFloor float64
	// HighWindowTicks is the hysteresis window for scale-up: the high-water
	// condition must hold for this many CONSECUTIVE observations before a
	// scale-up fires. Default 3.
	HighWindowTicks int
	// LowWindowTicks is the window for scale-down. Scaling down is the
	// cheaper mistake to avoid, so it defaults wider: 6.
	LowWindowTicks int
	// UpCooldownTicks is the minimum number of observations between two
	// scale-ups — time for the admitted capacity's flow-back to register
	// before deciding again. Default 2; negative means none (the naive
	// threshold controller the hysteresis tests thrash).
	UpCooldownTicks int
	// DownCooldownTicks is the minimum number of observations between two
	// scale-downs. Default 6; negative means none.
	DownCooldownTicks int
	// MinActive floors the active (non-drained) server count; scale-down
	// holds at the floor. Default 1.
	MinActive int
	// MaxActive, when > 0, caps the active server count; scale-up holds at
	// the cap. 0 means "bounded only by the spare pool".
	MaxActive int
	// DrainGuardUtil refuses a scale-down whose projected post-drain
	// utilization (current load over one less server's worth of capacity)
	// would exceed it — draining into scale-up territory is a guaranteed
	// flap. Default: UtilHigh.
	DrainGuardUtil float64
	// RetireAfterTicks, when > 0, lets the reconciler finish a scale-down:
	// a server the policy drained is retired (removed from the topology,
	// its spec returned to the cold pool) after sitting drained for this
	// many further observations. 0 keeps drained servers warm forever —
	// the right setting when re-admission must stay O(affected).
	RetireAfterTicks int
}

// Resolved returns the config with zero fields resolved to the documented
// defaults — what a Policy runs on, and the one place the defaults live.
func (c Config) Resolved() Config {
	if c.UtilHigh == 0 {
		c.UtilHigh = 0.85
	}
	if c.UtilLow == 0 {
		c.UtilLow = 0.50
	}
	if c.HighWindowTicks == 0 {
		c.HighWindowTicks = 3
	}
	if c.LowWindowTicks == 0 {
		c.LowWindowTicks = 6
	}
	switch {
	case c.UpCooldownTicks == 0:
		c.UpCooldownTicks = 2
	case c.UpCooldownTicks < 0:
		c.UpCooldownTicks = 0
	}
	switch {
	case c.DownCooldownTicks == 0:
		c.DownCooldownTicks = 6
	case c.DownCooldownTicks < 0:
		c.DownCooldownTicks = 0
	}
	if c.MinActive == 0 {
		c.MinActive = 1
	}
	if c.DrainGuardUtil == 0 {
		c.DrainGuardUtil = c.UtilHigh
	}
	return c
}

// Validate reports the first contradictory setting, after defaulting.
func (c Config) Validate() error {
	d := c.Resolved()
	switch {
	case d.UtilHigh <= 0 || d.UtilHigh > 1:
		return fmt.Errorf("autoscale: UtilHigh = %v, want in (0,1]", d.UtilHigh)
	case d.UtilLow < 0 || d.UtilLow >= d.UtilHigh:
		return fmt.Errorf("autoscale: UtilLow = %v, want in [0, UtilHigh=%v)", d.UtilLow, d.UtilHigh)
	case d.PQoSFloor < 0 || d.PQoSFloor >= 1:
		return fmt.Errorf("autoscale: PQoSFloor = %v, want in [0,1)", d.PQoSFloor)
	case d.HighWindowTicks < 1:
		return fmt.Errorf("autoscale: HighWindowTicks = %d, want >= 1", d.HighWindowTicks)
	case d.LowWindowTicks < 1:
		return fmt.Errorf("autoscale: LowWindowTicks = %d, want >= 1", d.LowWindowTicks)
	case d.MinActive < 1:
		return fmt.Errorf("autoscale: MinActive = %d, want >= 1", d.MinActive)
	case d.MaxActive < 0 || (d.MaxActive > 0 && d.MaxActive < d.MinActive):
		return fmt.Errorf("autoscale: MaxActive = %d, want 0 or >= MinActive=%d", d.MaxActive, d.MinActive)
	case d.DrainGuardUtil < d.UtilLow:
		return fmt.Errorf("autoscale: DrainGuardUtil = %v below UtilLow = %v (every drain would be refused)", d.DrainGuardUtil, d.UtilLow)
	case d.RetireAfterTicks < 0:
		return fmt.Errorf("autoscale: RetireAfterTicks = %d, want >= 0", d.RetireAfterTicks)
	}
	return nil
}

// Observation is one snapshot of planner state, in the order the policy
// consumes them. Every field derives from quantities that are
// bit-identical across worker counts, so the observation stream — and
// hence the decision stream — is too.
type Observation struct {
	// Tick is the observation's index in the stream (filled by the
	// Reconciler).
	Tick int `json:"tick"`
	// Clients is the current population.
	Clients int `json:"clients"`
	// Utilization is total load over total AVAILABLE capacity (drained
	// servers excluded), the planner's Utilization().
	Utilization float64 `json:"utilization"`
	// UtilSpread is the max−min per-server utilization over the active
	// fleet (the imbalance the planner's spread guard watches).
	UtilSpread float64 `json:"util_spread"`
	// PQoS is the fraction of clients within the delay bound.
	PQoS float64 `json:"pqos"`
	// DriftPQoS is how far pQoS sits below the last full solve's level.
	DriftPQoS float64 `json:"drift_pqos"`
	// ActiveServers and SpareServers partition the known fleet: active
	// (non-drained) servers versus admittable spares (drained/warm plus
	// cold pooled specs).
	ActiveServers int `json:"active_servers"`
	SpareServers  int `json:"spare_servers"`
}

// Action is what a Decision asks the actuator to do.
type Action int

const (
	// ActionNone holds the topology. A non-empty Reason explains a held
	// trigger (exhausted spares, floor/cap, drain guard).
	ActionNone Action = iota
	// ActionScaleUp admits one spare (uncordon / warm registration).
	ActionScaleUp
	// ActionScaleDown drains one active server back into the pool.
	ActionScaleDown
	// ActionRetire removes a long-drained server from the topology
	// (issued by the Reconciler's retire bookkeeping, never by the
	// policy's watermark machine).
	ActionRetire
)

// String returns the metric label for the action.
func (a Action) String() string {
	switch a {
	case ActionScaleUp:
		return "scale_up"
	case ActionScaleDown:
		return "scale_down"
	case ActionRetire:
		return "retire"
	default:
		return "none"
	}
}

// MarshalJSON renders the action as its stable label — the HTTP surface
// and bench artifacts say "scale_up", not an enum ordinal.
func (a Action) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.String())
}

// UnmarshalJSON accepts the labels MarshalJSON emits.
func (a *Action) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "none":
		*a = ActionNone
	case "scale_up":
		*a = ActionScaleUp
	case "scale_down":
		*a = ActionScaleDown
	case "retire":
		*a = ActionRetire
	default:
		return fmt.Errorf("autoscale: unknown action %q", s)
	}
	return nil
}

// Hold reasons (ActionNone with a trigger that could not fire) and fire
// reasons, as stable metric/label strings.
const (
	ReasonHighUtil    = "high-util"
	ReasonPQoSErosion = "pqos-erosion"
	ReasonLowUtil     = "low-util"
	ReasonStarved     = "spares-exhausted"
	ReasonAtMax       = "at-max-servers"
	ReasonAtMin       = "at-min-servers"
	ReasonDrainGuard  = "drain-guard-held"
	ReasonRetireAge   = "retire-grace-elapsed"
)

// Decision is the policy's verdict for one observation.
type Decision struct {
	Tick   int    `json:"tick"`
	Action Action `json:"action"`
	// Reason is the stable label of the trigger (fired or held).
	Reason string `json:"reason"`
	// Target is the server the actuator chose (filled by the Reconciler
	// after actuation; empty on holds).
	Target string `json:"target,omitempty"`
	// Utilization and PQoS snapshot the observation that fired the
	// decision.
	Utilization float64 `json:"utilization"`
	PQoS        float64 `json:"pqos"`
}

// Policy is the pure hysteresis state machine: watermark conditions must
// hold for a full window of consecutive observations to fire, and fired
// decisions start a cooldown during which the same direction cannot fire
// again. No clock, no randomness, no fleet references.
type Policy struct {
	cfg Config

	highStreak, lowStreak    int
	upCooldown, downCooldown int
}

// NewPolicy validates cfg and returns a ready policy.
func NewPolicy(cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{cfg: cfg.Resolved()}, nil
}

// Config returns the policy's resolved (defaulted) configuration.
func (p *Policy) Config() Config { return p.cfg }

// Streaks exposes the live hysteresis state (consecutive high-water and
// low-water observations) for inspection surfaces.
func (p *Policy) Streaks() (high, low int) { return p.highStreak, p.lowStreak }

// Cooldowns exposes the remaining cooldown ticks for each direction.
func (p *Policy) Cooldowns() (up, down int) { return p.upCooldown, p.downCooldown }

// Observe feeds one snapshot through the state machine and returns the
// decision: ActionScaleUp/ActionScaleDown when a watermark window
// completed and its cooldown has expired, or ActionNone — with a Reason
// when a completed trigger had to hold (no spares, floor/cap reached,
// drain guard). Pure: same observation stream, same decision stream.
func (p *Policy) Observe(o Observation) Decision {
	c := p.cfg
	if p.upCooldown > 0 {
		p.upCooldown--
	}
	if p.downCooldown > 0 {
		p.downCooldown--
	}

	erosion := c.PQoSFloor > 0 && o.PQoS < c.PQoSFloor
	high := o.Utilization >= c.UtilHigh || erosion
	low := o.Utilization <= c.UtilLow && !erosion

	if high {
		p.highStreak++
	} else {
		p.highStreak = 0
	}
	if low {
		p.lowStreak++
	} else {
		p.lowStreak = 0
	}

	d := Decision{Tick: o.Tick, Utilization: o.Utilization, PQoS: o.PQoS}
	switch {
	case p.highStreak >= c.HighWindowTicks && p.upCooldown == 0:
		reason := ReasonHighUtil
		if erosion {
			reason = ReasonPQoSErosion
		}
		switch {
		case c.MaxActive > 0 && o.ActiveServers >= c.MaxActive:
			d.Reason = ReasonAtMax
		case o.SpareServers == 0:
			d.Reason = ReasonStarved
		default:
			d.Action = ActionScaleUp
			d.Reason = reason
			p.upCooldown = c.UpCooldownTicks
			p.lowStreak = 0
		}
		// Fired or held, the window re-arms: a hold retries only after the
		// condition persists for another full window, so a starved pool
		// does not spam one hold per tick.
		p.highStreak = 0

	case p.lowStreak >= c.LowWindowTicks && p.downCooldown == 0:
		switch {
		case o.ActiveServers <= c.MinActive:
			d.Reason = ReasonAtMin
		case projectedUtil(o) > c.DrainGuardUtil:
			d.Reason = ReasonDrainGuard
		default:
			d.Action = ActionScaleDown
			d.Reason = ReasonLowUtil
			p.downCooldown = c.DownCooldownTicks
			p.highStreak = 0
		}
		p.lowStreak = 0
	}
	return d
}

// projectedUtil estimates utilization after removing one server's worth
// of capacity, assuming a roughly uniform fleet: u·n/(n−1). The actuator
// drains the least-loaded server, so for heterogeneous fleets this
// over-estimates — the guard errs toward holding, never toward a flap.
func projectedUtil(o Observation) float64 {
	if o.ActiveServers <= 1 {
		return 1
	}
	return o.Utilization * float64(o.ActiveServers) / float64(o.ActiveServers-1)
}
