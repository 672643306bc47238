package repair

import (
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

// State is the planner sidecar a durable snapshot needs beyond the problem
// itself (which WriteClusterJSON already round-trips byte-identically): the
// maintained assignment, the evaluator's history-dependent accumulators and
// bucket order (core.EvaluatorState), the cordon set, the drift-guard
// counters and the RNG position. NewFromState rebuilds a planner that
// continues the captured trajectory bit-identically — same repair
// decisions, same guard firings, same full-solve randomness — which is
// what lets crash recovery be verified as exact equivalence rather than
// "close enough" (DESIGN.md §11).
//
// Clients are in the planner's dense order, the order of the problem the
// state is restored over; BindPlanner names them in the same order.
type State struct {
	// ZoneServer and ClientContact are the maintained assignment in the
	// planner's dense order.
	ZoneServer    []int `json:"zone_server"`
	ClientContact []int `json:"client_contact"`
	// Eval is the evaluator's history-dependent sidecar.
	Eval *core.EvaluatorState `json:"eval"`
	// Drained is the cordon set (one flag per dense server), written from
	// the evaluator's flags like Eval.Cordoned; NewFromState refuses a state
	// whose two copies disagree.
	Drained []bool `json:"drained,omitempty"`
	// Stats, EventsSinceFull and FailBackoff are the guard's counters.
	Stats           Stats `json:"stats"`
	EventsSinceFull int   `json:"events_since_full"`
	FailBackoff     int   `json:"fail_backoff,omitempty"`
	// RNG is the planner's generator position (value stream and split
	// counter), so post-recovery full solves draw the same randomness.
	RNG xrand.State `json:"rng"`
}

// ExportState captures everything NewFromState needs to continue the
// planner's trajectory. The problem itself is snapshotted separately. It is
// also the evaluator's cache barrier (core.Evaluator.ExportState).
func (pl *Planner) ExportState() (*State, error) {
	rst, err := pl.rng.State()
	if err != nil {
		return nil, fmt.Errorf("repair: export RNG: %w", err)
	}
	a := pl.ev.Assignment()
	return &State{
		ZoneServer:      a.ZoneServer,
		ClientContact:   a.ClientContact,
		Eval:            pl.ev.ExportState(),
		Drained:         append([]bool(nil), pl.ev.Cordons()...),
		Stats:           pl.stats,
		EventsSinceFull: pl.eventsSinceFull,
		FailBackoff:     pl.failBackoff,
		RNG:             rst,
	}, nil
}

// NewFromState rebuilds a planner over a clone of p continuing exactly
// where st was captured: no solve runs, the stored assignment is adopted,
// the evaluator's accumulators and bucket order are installed verbatim and
// the RNG resumes its stream. Client j of p is client j of the state. The
// state is validated against p before anything is adopted.
func NewFromState(cfg Config, p *core.Problem, st *State) (*Planner, error) {
	rng, err := xrand.Restore(st.RNG)
	if err != nil {
		return nil, fmt.Errorf("repair: restore RNG: %w", err)
	}
	pl, err := prepare(cfg, p, rng)
	if err != nil {
		return nil, err
	}
	a := &core.Assignment{
		ZoneServer:    append([]int(nil), st.ZoneServer...),
		ClientContact: append([]int(nil), st.ClientContact...),
	}
	if err := a.Validate(pl.prob); err != nil {
		return nil, fmt.Errorf("repair: stored assignment: %w", err)
	}
	if st.Drained != nil && len(st.Drained) != pl.prob.NumServers() {
		return nil, fmt.Errorf("repair: state has %d drain flags, problem has %d servers", len(st.Drained), pl.prob.NumServers())
	}
	if st.Eval == nil {
		return nil, fmt.Errorf("repair: state has no evaluator sidecar")
	}
	pl.bindEvaluator(a)
	if err := pl.ev.RestoreState(st.Eval); err != nil {
		return nil, err
	}
	for i, d := range st.Drained {
		if st.Eval.Cordoned != nil && st.Eval.Cordoned[i] != d {
			return nil, fmt.Errorf("repair: drain flag for server %d disagrees with evaluator cordon", i)
		}
		pl.ev.SetCordon(i, d)
	}
	pl.stats = st.Stats
	pl.eventsSinceFull = st.EventsSinceFull
	pl.failBackoff = st.FailBackoff
	return pl, nil
}
