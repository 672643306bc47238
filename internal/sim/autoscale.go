// Autoscaling in the churn simulation: a time-varying arrival trace
// (diurnal tide plus flash crowds), the driver-side actuator that lets an
// autoscale.Reconciler drive the planner's drain/uncordon verbs, and the
// clairvoyant oracle provisioner the reconciler is scored against
// (DESIGN.md §14).
//
// The simulation's warm-spare pool is the drained server set: the world's
// full fleet is fixed (evaluation problems index every server), so
// scale-up is UncordonServer — made effective by the planner's immediate
// flow-back scan — and scale-down is DrainServer. No server is ever
// renumbered, which keeps the driver's world-indexed sampling aligned.
package sim

import (
	"fmt"
	"math"

	"dvecap/internal/autoscale"
	"dvecap/internal/repair"
)

// Flash is one flash-crowd episode: for DurationSec starting at
// StartSec, the arrival rate is multiplied by Multiplier. Overlapping
// flashes multiply together.
type Flash struct {
	StartSec    float64
	DurationSec float64
	Multiplier  float64
}

// ArrivalTrace is a time-varying Poisson arrival rate: a base rate, an
// optional diurnal tide (sinusoidal, starting at the trough so runs open
// in the quiet hours), and flash crowds. The joins are generated by
// Lewis–Shedler thinning against MaxRate, so the process is an exact
// non-homogeneous Poisson process and fully deterministic given the
// driver's RNG.
type ArrivalTrace struct {
	// BaseRate is the mean arrival rate, clients/second.
	BaseRate float64
	// DiurnalAmplitude in [0,1) scales the tide:
	// rate = BaseRate · (1 + A·sin(2πt/Period − π/2)).
	DiurnalAmplitude float64
	// DiurnalPeriodSec is the tide's period (required when A > 0).
	DiurnalPeriodSec float64
	// Flashes are the flash-crowd episodes.
	Flashes []Flash
}

// Validate reports the first invalid trace parameter.
func (tr *ArrivalTrace) Validate() error {
	switch {
	case tr.BaseRate <= 0:
		return fmt.Errorf("sim: arrival BaseRate = %v, want > 0", tr.BaseRate)
	case tr.DiurnalAmplitude < 0 || tr.DiurnalAmplitude >= 1:
		return fmt.Errorf("sim: DiurnalAmplitude = %v, want in [0,1)", tr.DiurnalAmplitude)
	case tr.DiurnalAmplitude > 0 && tr.DiurnalPeriodSec <= 0:
		return fmt.Errorf("sim: DiurnalPeriodSec = %v, want > 0 with a diurnal tide", tr.DiurnalPeriodSec)
	}
	for i, f := range tr.Flashes {
		if f.StartSec < 0 || f.DurationSec <= 0 || f.Multiplier <= 0 {
			return fmt.Errorf("sim: flash %d = %+v, want StartSec >= 0, DurationSec > 0, Multiplier > 0", i, f)
		}
	}
	return nil
}

// Rate returns the instantaneous arrival rate at virtual time t.
func (tr *ArrivalTrace) Rate(t float64) float64 {
	r := tr.BaseRate
	if tr.DiurnalAmplitude > 0 {
		r *= 1 + tr.DiurnalAmplitude*math.Sin(2*math.Pi*t/tr.DiurnalPeriodSec-math.Pi/2)
	}
	for _, f := range tr.Flashes {
		if t >= f.StartSec && t < f.StartSec+f.DurationSec {
			r *= f.Multiplier
		}
	}
	return r
}

// MaxRate upper-bounds Rate over all t — the thinning envelope. The
// product of active flash multipliers is piecewise-constant and only
// rises at a flash start, so evaluating it at every start finds its
// maximum; sub-1 multipliers are ignored, which keeps the result an
// upper bound. A tight envelope matters: thinning generates candidate
// events at MaxRate, so a loose bound (say, compounding sequential
// flashes) would multiply simulation work, not just waste a few draws.
func (tr *ArrivalTrace) MaxRate() float64 {
	best := 1.0
	for _, f := range tr.Flashes {
		prod := 1.0
		for _, g := range tr.Flashes {
			if g.Multiplier > 1 && f.StartSec >= g.StartSec && f.StartSec < g.StartSec+g.DurationSec {
				prod *= g.Multiplier
			}
		}
		if prod > best {
			best = prod
		}
	}
	return tr.BaseRate * (1 + tr.DiurnalAmplitude) * best
}

// AutoscaleConfig arms the capacity control loop in the churn driver
// (requires Repair mode).
type AutoscaleConfig struct {
	// Policy parameterises the hysteresis reconciler. Ignored when Oracle
	// is set, except for UtilHigh and MinActive which the oracle tracks.
	Policy autoscale.Config
	// SpareServers: the LAST N world servers start drained, forming the
	// warm pool. The initial solve avoids them (Options.Cordoned).
	SpareServers int
	// EverySec is the reconcile cadence in virtual seconds.
	EverySec float64
	// Oracle switches the controller to the clairvoyant provisioner: each
	// tick it sets the active prefix to the SMALLEST server count keeping
	// utilization at or below Policy.UtilHigh — zero lag, no hysteresis,
	// unlimited steps per tick. Its server-hours and pQoS are the score
	// the reconciler must approach (≤1.2× hours, pQoS within ε).
	Oracle bool
}

// Validate reports the first invalid autoscale parameter.
func (a *AutoscaleConfig) Validate() error {
	switch {
	case a.SpareServers < 0:
		return fmt.Errorf("sim: SpareServers = %d, want >= 0", a.SpareServers)
	case a.EverySec <= 0:
		return fmt.Errorf("sim: autoscale EverySec = %v, want > 0", a.EverySec)
	}
	return a.Policy.Validate()
}

// driverActuator adapts the driver to autoscale.Actuator: the observation
// and the target choice are autoscale's, a deterministic function of planner
// state, which is itself bit-identical across worker counts — the fleet half
// of the §14 determinism argument.
type driverActuator struct{ d *Driver }

func (a driverActuator) Observe() autoscale.Observation { return autoscale.Observe(a.d.planner()) }

// ScaleUp admits the lowest-index drained server.
func (a driverActuator) ScaleUp() (string, error) { return a.d.scale(true) }

// ScaleDown drains the least-loaded active server, ties to the lowest
// index.
func (a driverActuator) ScaleDown() (string, error) { return a.d.scale(false) }

// scale runs one scaling verb on the server autoscale.Target picks.
func (d *Driver) scale(up bool) (string, error) {
	i, err := autoscale.Target(d.planner(), up)
	if err != nil {
		return "", err
	}
	return d.setActive(i, up)
}

// setActive uncordons (active) or drains server i through the machine, folds
// the fleet-size step into the server-hours integral (accumulate at the old
// size, then step) and returns the server's ID.
func (d *Driver) setActive(i int, active bool) (string, error) {
	id, op, delta := d.m.Binding().ServerID(i), repair.OpDrainServer, -1
	if active {
		op, delta = repair.OpUncordon, 1
	}
	if err := d.m.Commit(&repair.Event{Op: op, Server: id}, nil, nil); err != nil {
		return "", err
	}
	d.integrateServerSecs()
	d.activeCount += delta
	return id, nil
}

// Retire is unsupported: the world problem indexes every server, so the
// pool stays warm forever.
func (a driverActuator) Retire(string) error { return autoscale.ErrRetireUnsupported }

// integrateServerSecs extends the active-server time integral to now.
func (d *Driver) integrateServerSecs() {
	now := d.eng.Now()
	d.serverSecs += float64(d.activeCount) * (now - d.lastActiveT)
	d.lastActiveT = now
}

// ServerHours returns the active-fleet time integral ∫ active(t) dt so
// far, in server-hours — the provisioning spend the oracle comparison
// scores.
func (d *Driver) ServerHours() float64 {
	d.integrateServerSecs()
	return d.serverSecs / 3600
}

// AutoscaleDecisions returns the reconciler's fired-decision log (nil in
// oracle mode or without autoscaling — oracle moves are counted in
// OracleMoves).
func (d *Driver) AutoscaleDecisions() []autoscale.Decision {
	if d.autoRec == nil {
		return nil
	}
	return d.autoRec.Decisions()
}

// OracleMoves returns how many topology verbs (uncordons + drains) the
// oracle provisioner issued.
func (d *Driver) OracleMoves() int { return d.oracleMoves }

// autoscaleEvent is the reconcile tick.
func (d *Driver) autoscaleEvent() {
	d.integrateServerSecs()
	if d.cfg.Autoscale.Oracle {
		d.oracleTick()
	} else if _, err := d.autoRec.Tick(); err != nil {
		d.errs = append(d.errs, fmt.Errorf("sim: autoscale: %w", err))
	}
	d.eng.Schedule(d.cfg.Autoscale.EverySec, d.autoscaleEvent)
}

// oracleTick is the clairvoyant provisioner: activate exactly the
// smallest server PREFIX whose capacity keeps utilization at or below
// the high watermark, instantly — no windows, no cooldowns, any number
// of steps. Prefix activation keeps its choices deterministic and
// index-aligned with the reconciler's pool (spares are the suffix).
func (d *Driver) oracleTick() {
	pl := d.planner()
	cfg := d.cfg.Autoscale.Policy.Resolved()
	load := 0.0
	for i := 0; i < pl.NumServers(); i++ {
		load += pl.ServerLoad(i)
	}
	n, cum := 0, 0.0
	for n < pl.NumServers() && (n < cfg.MinActive || load > cfg.UtilHigh*cum) {
		cum += pl.ServerCapacity(n)
		n++
	}
	// Admit the prefix, drain the suffix; each verb is a planner event
	// with its own flow-back/evacuation, applied in ascending order.
	for i := 0; i < pl.NumServers(); i++ {
		active := i < n
		if active != pl.Draining(i) {
			continue
		}
		if _, err := d.setActive(i, active); err != nil {
			d.errs = append(d.errs, err)
			continue
		}
		d.oracleMoves++
	}
}

// joinTraceEvent generates non-homogeneous Poisson arrivals by thinning:
// candidate events fire at the constant envelope rate MaxRate and are
// accepted with probability Rate(t)/MaxRate.
func (d *Driver) joinTraceEvent() {
	tr := d.cfg.Arrivals
	if d.rng.Float64()*d.arrivalMax <= tr.Rate(d.eng.Now()) {
		d.admitJoin()
	}
	d.eng.Schedule(d.rng.Exp(d.arrivalMax), d.joinTraceEvent)
}
