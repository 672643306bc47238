package milp

import (
	"math"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

// bruteForceRAP enumerates all contact choices for the late clients of a
// small instance and returns the minimum achievable C^R cost.
func bruteForceRAP(p *core.Problem, zoneServer []int) float64 {
	m := p.NumServers()
	resid := append([]float64(nil), p.ServerCaps...)
	zoneRT := p.ZoneRT()
	for z, s := range zoneServer {
		resid[s] -= zoneRT[z]
	}
	var late []int
	for j, z := range p.ClientZones {
		if p.CS[j][zoneServer[z]] > p.D {
			late = append(late, j)
		}
	}
	best := math.Inf(1)
	choice := make([]int, len(late))
	var rec func(l int, loads []float64, cost float64)
	rec = func(l int, loads []float64, cost float64) {
		if cost >= best {
			return
		}
		if l == len(late) {
			best = cost
			return
		}
		j := late[l]
		t := zoneServer[p.ClientZones[j]]
		for i := 0; i < m; i++ {
			extra := 0.0
			if i != t {
				extra = 2 * p.ClientRT[j]
			}
			if loads[i]+extra > resid[i]+1e-9 {
				continue
			}
			loads[i] += extra
			choice[l] = i
			rec(l+1, loads, cost+core.RefinedCost(p, j, i, t))
			loads[i] -= extra
		}
	}
	rec(0, make([]float64, m), 0)
	return best
}

func TestSolveRAPMatchesBruteForce(t *testing.T) {
	rng := xrand.New(71)
	tried := 0
	for trial := 0; tried < 20+60 && trial < 400; trial++ {
		tight := tried >= 20
		p := randomCAP(rng.Split(), tight)
		if !tight && p.NumClients() > 9 {
			continue // keep the m^k enumeration tractable
		}
		target, err := core.GreZ(nil, p, core.Options{})
		if err != nil {
			continue
		}
		res, err := SolveRAP(p, target, SolverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: not proven optimal", trial)
		}
		if res.LateClients > 10 {
			continue // likewise for the late clients it enumerates
		}
		brute := bruteForceRAP(p, target)
		if math.IsInf(brute, 1) {
			// No feasible contact combination; SolveRAP should also have
			// failed — but it can't, since target is always feasible, so
			// brute being infeasible signals a bug in the test itself.
			t.Fatalf("trial %d: brute force found no feasible solution", trial)
		}
		if math.Abs(res.Cost-brute) > 1e-6 {
			t.Fatalf("trial %d: MILP %v vs brute force %v", trial, res.Cost, brute)
		}
		tried++
	}
	if tried < 10 {
		t.Fatalf("only %d instances exercised; loosen the filters", tried)
	}
}

// TestSolveCAPNeverBelowGreZGreC confirms the exact pipeline is at least as
// good as the best heuristic on the with-QoS count for the IAP objective it
// optimises — on the IAP cost, not necessarily pQoS (the exact solver
// optimises C^I then C^R sequentially, as the paper does).
func TestSolveCAPIAPCostOptimal(t *testing.T) {
	rng := xrand.New(83)
	for trial := 0; trial < 10+40; trial++ {
		p := randomCAP(rng.Split(), trial >= 10)
		a, iap, _, err := SolveCAP(p, SolverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !iap.Optimal {
			continue
		}
		if gz, err := core.GreZ(nil, p, core.Options{}); err == nil {
			if iap.Cost > core.IAPCost(p, gz) {
				t.Fatalf("trial %d: exact IAP %d worse than GreZ %d",
					trial, iap.Cost, core.IAPCost(p, gz))
			}
		}
		if err := a.CheckCapacity(p, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
