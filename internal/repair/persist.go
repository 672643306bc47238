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
// Client handles are NOT part of the state: handle numbers never influence
// a placement decision (they only route lookups), so recovery renumbers
// clients 0..k-1 in dense order and RestoreIDBinding re-ties external IDs
// to the fresh handles.
type State struct {
	// ZoneServer and ClientContact are the maintained assignment in the
	// planner's dense order.
	ZoneServer    []int `json:"zone_server"`
	ClientContact []int `json:"client_contact"`
	// Eval is the evaluator's history-dependent sidecar.
	Eval *core.EvaluatorState `json:"eval"`
	// Drained mirrors the cordon set (one flag per dense server).
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
		Drained:         append([]bool(nil), pl.drained...),
		Stats:           pl.stats,
		EventsSinceFull: pl.eventsSinceFull,
		FailBackoff:     pl.failBackoff,
		RNG:             rst,
	}, nil
}

// NewFromState rebuilds a planner over a clone of p continuing exactly
// where st was captured: no solve runs, the stored assignment is adopted,
// the evaluator's accumulators and bucket order are installed verbatim and
// the RNG resumes its stream. Clients receive fresh handles 0..k-1 in
// dense problem order. The state is validated against p before anything
// is adopted.
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
	if st.Drained != nil {
		copy(pl.drained, st.Drained)
		for i, c := range st.Eval.Cordoned {
			if pl.drained[i] != c {
				return nil, fmt.Errorf("repair: drain flag for server %d disagrees with evaluator cordon", i)
			}
		}
	}
	pl.stats = st.Stats
	pl.eventsSinceFull = st.EventsSinceFull
	pl.failBackoff = st.FailBackoff
	return pl, nil
}

// RestoreIDBinding rebuilds the ID layer over a recovered planner: ids[j]
// names the client at dense index j (NewFromState renumbers handles to
// dense order), serverIDs and zoneIDs name the topology. One call replaces NewIDBinding + NameTopology for recovery.
func RestoreIDBinding(pl *Planner, ids, serverIDs, zoneIDs []string) (*IDBinding, error) {
	b, err := NewIDBinding(pl, ids)
	if err != nil {
		return nil, err
	}
	if err := b.NameTopology(serverIDs, zoneIDs); err != nil {
		return nil, err
	}
	return b, nil
}
