package milp

import (
	"fmt"
	"math"
	"time"

	"dvecap/internal/core"
)

// This file casts the paper's two assignment problems into GAPs and solves
// them exactly, reproducing the paper's lp_solve baseline. As in the
// paper, the two phases are solved sequentially: the optimal IAP first,
// then the optimal RAP given that initial assignment.

// SolverOptions bound the exact solver's effort. The paper reports lp_solve
// needed 0.2 s and 41.5 s on the two small configurations and over 10 hours
// on larger ones; Deadline makes that practical reality explicit.
type SolverOptions struct {
	// Deadline cuts each phase's search; zero means none. A cut search
	// returns its best assignment so far with Optimal false.
	Deadline time.Duration
}

// IAPResult carries the exact initial assignment.
type IAPResult struct {
	ZoneServer []int
	Cost       int // C^I(x): clients without QoS to their target
	Nodes      int
	Optimal    bool
	Elapsed    time.Duration
}

// SolveIAP computes the optimal initial assignment of Definition 2.2: zones
// go on servers, zone j costing C^I_ij on server i and weighing its R_j
// against the server's capacity. The search is warm-started from the better
// of GreZ and GreZDynamic.
func SolveIAP(p *core.Problem, opt SolverOptions) (*IAPResult, error) {
	start := time.Now()
	ci := core.InitialCosts(p)
	zoneRT := p.ZoneRT()
	g := newGAP(p.NumZones, p.ServerCaps, func(j, i int) (float64, float64) {
		return float64(ci[i][j]), zoneRT[j]
	})
	sol := g.solve(iapWarmStart(p), opt.Deadline)
	if sol.x == nil {
		return nil, fmt.Errorf("milp: IAP has no feasible assignment within limits")
	}
	return &IAPResult{
		ZoneServer: sol.x,
		Cost:       core.IAPCost(p, sol.x),
		Nodes:      sol.nodes,
		Optimal:    sol.optimal,
		Elapsed:    time.Since(start),
	}, nil
}

// iapWarmStart returns the better of GreZ's and GreZDynamic's feasible
// assignments, nil when neither is — a tighter incumbent prunes the
// branch-and-bound tree substantially on hard instances.
func iapWarmStart(p *core.Problem) []int {
	bestCost := math.MaxInt
	var best []int
	for _, heur := range []core.IAPFunc{core.GreZ, core.GreZDynamic} {
		target, err := heur(nil, p, core.Options{Overflow: core.ErrorOnOverflow})
		if err != nil {
			continue
		}
		if c := core.IAPCost(p, target); c < bestCost {
			bestCost, best = c, target
		}
	}
	return best
}

// RAPResult carries the exact refined assignment.
type RAPResult struct {
	ClientContact []int
	Cost          float64 // C^R(x): summed delay excess over the bound
	Nodes         int
	Optimal       bool
	Elapsed       time.Duration
	// LateClients is the number of clients the exact solver actually had
	// to place (those without direct QoS to their target); the rest are
	// fixed to their target by the optimality-preserving presolve.
	LateClients int
}

// SolveRAP computes the optimal refined assignment for a given initial
// assignment.
//
// Presolve: a client whose direct delay to its target meets the bound is
// fixed to contact = target. This preserves optimality: such a client's
// cost is already the minimum possible (zero) and contact = target consumes
// zero contact capacity, so any solution rerouting it can be rewritten, at
// no cost increase and no capacity increase, to keep it direct. The integer
// program then covers only the "late" clients, exactly the set the paper's
// GreC iterates over.
func SolveRAP(p *core.Problem, zoneServer []int, opt SolverOptions) (*RAPResult, error) {
	start := time.Now()

	// Residual capacities after the initial assignment (constraint (10)).
	resid := append([]float64(nil), p.ServerCaps...)
	zoneRT := p.ZoneRT()
	for z, s := range zoneServer {
		resid[s] -= zoneRT[z]
	}
	for i := range resid {
		resid[i] = math.Max(resid[i], 0) // an over-tight initial assignment leaves no slack
	}

	contact := make([]int, p.NumClients())
	var late []int
	for j, z := range p.ClientZones {
		t := zoneServer[z]
		if p.CSAt(j, t) <= p.D {
			contact[j] = t
		} else {
			contact[j] = -1
			late = append(late, j)
		}
	}
	if len(late) == 0 {
		return &RAPResult{ClientContact: contact, Cost: 0, Optimal: true, Elapsed: time.Since(start)}, nil
	}

	// Late client l costs C^R on contact i and, off its target, forwards
	// 2·R_j through it.
	g := newGAP(len(late), resid, func(l, i int) (float64, float64) {
		j := late[l]
		t := zoneServer[p.ClientZones[j]]
		if i == t {
			return core.RefinedCost(p, j, i, t), 0
		}
		return core.RefinedCost(p, j, i, t), 2 * p.ClientRT[j]
	})
	sol := g.solve(rapWarmStart(p, zoneServer, late), opt.Deadline)
	if sol.x == nil {
		return nil, fmt.Errorf("milp: RAP has no feasible assignment within limits")
	}
	for l, j := range late {
		contact[j] = sol.x[l]
	}
	a := &core.Assignment{ZoneServer: zoneServer, ClientContact: contact}
	return &RAPResult{
		ClientContact: contact,
		Cost:          core.RAPCost(p, a),
		Nodes:         sol.nodes,
		Optimal:       sol.optimal,
		Elapsed:       time.Since(start),
		LateClients:   len(late),
	}, nil
}

// rapWarmStart returns GreC's contacts for the late clients, nil when GreC
// fails.
func rapWarmStart(p *core.Problem, zoneServer, late []int) []int {
	gc, err := core.GreC(nil, p, zoneServer, core.Options{})
	if err != nil {
		return nil
	}
	x := make([]int, len(late))
	for l, j := range late {
		x[l] = gc[j]
	}
	return x
}

// SolveCAP runs both exact phases in sequence and returns the resulting
// assignment — the reproduction's "lp_solve" table column.
func SolveCAP(p *core.Problem, opt SolverOptions) (*core.Assignment, *IAPResult, *RAPResult, error) {
	iap, err := SolveIAP(p, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	rap, err := SolveRAP(p, iap.ZoneServer, opt)
	if err != nil {
		return nil, iap, nil, err
	}
	a := &core.Assignment{ZoneServer: iap.ZoneServer, ClientContact: rap.ClientContact}
	if err := a.Validate(p); err != nil {
		return nil, iap, rap, err
	}
	return a, iap, rap, nil
}
