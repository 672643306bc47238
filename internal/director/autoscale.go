package director

// Autoscaling control plane (DESIGN.md §14): the director hosts an
// autoscale.Reconciler whose actuator drives the live-topology verbs —
// scale-up admits the lowest-index warm spare via UncordonServer (the
// planner's flow-back scan pulls load onto it immediately, O(affected)),
// scale-down drains the least-loaded active server back into the pool,
// and retirement removes a long-drained server, wherever it sits. Every
// verb runs through the journaled mutators, so an autoscaled trajectory
// recovers bit-identically like any other.

import (
	"fmt"

	"dvecap/internal/autoscale"
)

// dirActuator adapts the director to autoscale.Actuator. Targets are stable
// server IDs — a removal renumbers indices, never the names the reconciler
// tracks — and every choice is a deterministic function of planner state
// (lowest index, least-loaded with lowest-index ties).
type dirActuator struct{ d *Director }

func (a dirActuator) Observe() autoscale.Observation {
	d := a.d
	d.mu.RLock()
	defer d.mu.RUnlock()
	pl := d.planner()
	st := pl.Stats()
	spares := 0
	for i := 0; i < pl.NumServers(); i++ {
		if pl.Draining(i) {
			spares++
		}
	}
	return autoscale.Observation{
		Clients:       pl.NumClients(),
		Utilization:   pl.Utilization(),
		UtilSpread:    st.LastUtilSpread,
		PQoS:          pl.PQoS(),
		DriftPQoS:     st.LastDriftPQoS,
		ActiveServers: pl.NumServers() - spares,
		SpareServers:  spares,
	}
}

// pick returns the ID of the server the scaling verb should act on: among
// the drained servers (or the active ones) the least-loaded, ties to the
// lowest index — a drained server carries no load, so for scale-up that is
// the lowest-index one.
func (a dirActuator) pick(drained bool) (string, error) {
	d := a.d
	d.mu.RLock()
	defer d.mu.RUnlock()
	pl := d.planner()
	victim, best := -1, 0.0
	for i := 0; i < pl.NumServers(); i++ {
		if pl.Draining(i) != drained {
			continue
		}
		if l := pl.ServerLoad(i); victim < 0 || (!drained && l < best) {
			victim, best = i, l
		}
	}
	if victim < 0 {
		return "", fmt.Errorf("director: scaling with no server to act on (drained=%v)", drained)
	}
	return d.m.Binding().ServerID(victim), nil
}

// ScaleUp admits the lowest-index drained server.
func (a dirActuator) ScaleUp() (string, error) {
	id, err := a.pick(true)
	if err == nil {
		_, err = a.d.UncordonServer(ID(id))
	}
	return id, err
}

// ScaleDown drains the least-loaded active server, ties to the lowest
// index.
func (a dirActuator) ScaleDown() (string, error) {
	id, err := a.pick(false)
	if err == nil {
		_, err = a.d.DrainServer(ID(id))
	}
	return id, err
}

// Retire removes a long-drained server. A target that was re-admitted in the
// meantime (or is gone) is refused; the reconciler then drops it.
func (a dirActuator) Retire(target string) error {
	d := a.d
	d.mu.RLock()
	i, err := d.serverIndex(ID(target))
	drained := err == nil && d.planner().Draining(i)
	d.mu.RUnlock()
	if !drained {
		return fmt.Errorf("director: retire target %q is not a drained server", target)
	}
	return d.RemoveServer(ID(target))
}

// EnableAutoscale attaches an autoscaling reconciler to the director.
// The reconciler shares the director's telemetry registry (the
// dvecap_autoscale_* series) and drives the journaled topology verbs;
// call it once, then run Autoscale().RunLoop (or tick it by hand through
// POST /v1/autoscale/tick). Fails if already enabled.
func (d *Director) EnableAutoscale(cfg autoscale.Config) error {
	d.mu.Lock()
	if d.autoRec != nil {
		d.mu.Unlock()
		return fmt.Errorf("director: autoscaling already enabled")
	}
	d.mu.Unlock()
	// New observes the fleet once to seed gauges — through dirActuator,
	// which takes d.mu itself, so the director lock must be free here.
	rec, err := autoscale.New(cfg, dirActuator{d}, d.tele)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.autoRec != nil {
		return fmt.Errorf("director: autoscaling already enabled")
	}
	d.autoRec = rec
	return nil
}

// Autoscale returns the reconciler, or nil when autoscaling is not
// enabled.
func (d *Director) Autoscale() *autoscale.Reconciler {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.autoRec
}

// AutoscaleStatus is the GET /v1/autoscale view: the live policy, pause
// state, hysteresis position and the fired-decision log.
type AutoscaleStatus struct {
	Enabled    bool                 `json:"enabled"`
	Paused     bool                 `json:"paused"`
	Ticks      int                  `json:"ticks"`
	HighStreak int                  `json:"high_streak"`
	LowStreak  int                  `json:"low_streak"`
	Config     autoscale.Config     `json:"config"`
	Decisions  []autoscale.Decision `json:"decisions"`
}

// AutoscaleStatus snapshots the reconciler (zero value when disabled).
func (d *Director) AutoscaleStatus() AutoscaleStatus {
	rec := d.Autoscale()
	if rec == nil {
		return AutoscaleStatus{}
	}
	hi, lo := rec.Streaks()
	return AutoscaleStatus{
		Enabled:    true,
		Paused:     rec.Paused(),
		Ticks:      rec.Ticks(),
		HighStreak: hi,
		LowStreak:  lo,
		Config:     rec.Config(),
		Decisions:  rec.Decisions(),
	}
}
