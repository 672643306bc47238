package milp

import (
	"math"
	"strings"
	"testing"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

// exactTiny solves the tiny CAP instance by brute force for cross-checks.
func bruteForceIAP(p *core.Problem) ([]int, int) {
	m, n := p.NumServers(), p.NumZones
	zoneRT := p.ZoneRT()
	best := math.MaxInt
	var bestAssign []int
	assign := make([]int, n)
	var rec func(z int, loads []float64)
	rec = func(z int, loads []float64) {
		if z == n {
			if c := core.IAPCost(p, assign); c < best {
				best = c
				bestAssign = append([]int(nil), assign...)
			}
			return
		}
		for s := 0; s < m; s++ {
			if loads[s]+zoneRT[z] <= p.ServerCaps[s]+1e-9 {
				assign[z] = s
				loads[s] += zoneRT[z]
				rec(z+1, loads)
				loads[s] -= zoneRT[z]
			}
		}
	}
	rec(0, make([]float64, m))
	return bestAssign, best
}

// randomCAP draws a small instance. A loose one has 2–3 servers, 2–5 zones,
// 3–15 clients and room for 1.5–3 of its largest zone on every server. A
// tight one has 3–4 servers, 5–8 zones, 10–14 clients and capacities of
// 1.0–1.6× the servers' mean share of the zone load, each raised where
// needed so that one random placement of the zones fits.
func randomCAP(rng *xrand.RNG, tight bool) *core.Problem {
	m, n, k := rng.IntRange(2, 3), rng.IntRange(2, 5), rng.IntRange(3, 15)
	if tight {
		m, n, k = rng.IntRange(3, 4), rng.IntRange(5, 8), rng.IntRange(10, 14)
	}
	p := &core.Problem{
		ServerCaps:  make([]float64, m),
		ClientZones: make([]int, k),
		NumZones:    n,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           rng.Uniform(100, 300),
	}
	for j := 0; j < k; j++ {
		p.ClientZones[j] = rng.IntN(n)
		p.ClientRT[j] = rng.Uniform(0.1, 0.4)
		p.CS[j] = make([]float64, m)
		for i := 0; i < m; i++ {
			p.CS[j][i] = rng.Uniform(0, 500)
		}
	}
	for i := 0; i < m; i++ {
		p.SS[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for l := i + 1; l < m; l++ {
			d := rng.Uniform(0, 200)
			p.SS[i][l], p.SS[l][i] = d, d
		}
	}
	zoneRT := p.ZoneRT()
	if tight {
		var total float64
		placed := make([]float64, m)
		for _, r := range zoneRT {
			total += r
			placed[rng.IntN(m)] += r
		}
		for i := range p.ServerCaps {
			p.ServerCaps[i] = math.Max(total/float64(m)*rng.Uniform(1, 1.6), placed[i])
		}
		return p
	}
	var maxZone float64
	for _, r := range zoneRT {
		if r > maxZone {
			maxZone = r
		}
	}
	for i := 0; i < m; i++ {
		p.ServerCaps[i] = maxZone * rng.Uniform(1.5, 3)
	}
	return p
}

func TestSolveIAPMatchesBruteForce(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 25+60; trial++ {
		p := randomCAP(rng.Split(), trial >= 25)
		res, err := SolveIAP(p, SolverOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: not proven optimal", trial)
		}
		_, bruteCost := bruteForceIAP(p)
		if res.Cost != bruteCost {
			t.Fatalf("trial %d: MILP cost %d, brute force %d", trial, res.Cost, bruteCost)
		}
	}
}

func TestSolveIAPNeverWorseThanGreZ(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		p := randomCAP(rng.Split(), false)
		res, err := SolveIAP(p, SolverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if target, err := core.GreZ(nil, p, core.Options{}); err == nil {
			if res.Cost > core.IAPCost(p, target) {
				t.Fatalf("trial %d: exact %d worse than GreZ %d", trial, res.Cost, core.IAPCost(p, target))
			}
		}
	}
}

func TestSolveRAPNeverWorseThanGreC(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 20; trial++ {
		p := randomCAP(rng.Split(), false)
		target, err := core.GreZ(nil, p, core.Options{})
		if err != nil {
			continue // infeasible random instance; skip
		}
		res, err := SolveRAP(p, target, SolverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: RAP not proven optimal", trial)
		}
		gc, err := core.GreC(nil, p, target, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ag := &core.Assignment{ZoneServer: target, ClientContact: gc}
		if res.Cost > core.RAPCost(p, ag)+1e-6 {
			t.Fatalf("trial %d: exact RAP %v worse than GreC %v", trial, res.Cost, core.RAPCost(p, ag))
		}
	}
}

func TestSolveRAPRespectsResidualCapacity(t *testing.T) {
	rng := xrand.New(29)
	for trial := 0; trial < 15+30; trial++ {
		p := randomCAP(rng.Split(), trial >= 15)
		target, err := core.GreZ(nil, p, core.Options{})
		if err != nil {
			continue
		}
		res, err := SolveRAP(p, target, SolverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a := &core.Assignment{ZoneServer: target, ClientContact: res.ClientContact}
		if err := a.CheckCapacity(p, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSolveCAPEndToEnd(t *testing.T) {
	p := randomCAP(xrand.New(99), false)
	a, iap, rap, err := SolveCAP(p, SolverOptions{Deadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	if iap == nil || rap == nil {
		t.Fatal("missing phase results")
	}
	m := core.Evaluate(p, a)
	if m.PQoS < 0 || m.PQoS > 1 {
		t.Fatalf("pQoS %v", m.PQoS)
	}
}

func TestSolveRAPAllDirectShortCircuits(t *testing.T) {
	// Every client within bound of its target: RAP must fix all to target
	// with zero cost and no search.
	p := &core.Problem{
		ServerCaps:  []float64{10, 10},
		ClientZones: []int{0, 1},
		NumZones:    2,
		ClientRT:    []float64{1, 1},
		CS:          [][]float64{{50, 400}, {400, 50}},
		SS:          [][]float64{{0, 30}, {30, 0}},
		D:           100,
	}
	res, err := SolveRAP(p, []int{0, 1}, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || res.LateClients != 0 || !res.Optimal {
		t.Fatalf("short-circuit failed: %+v", res)
	}
	if res.ClientContact[0] != 0 || res.ClientContact[1] != 1 {
		t.Fatalf("contacts %v", res.ClientContact)
	}
}

func TestSolveIAPKeepsOptimalWarmStart(t *testing.T) {
	// Each zone's cheapest server has room for it, so GreZ's warm start is
	// optimal; the root's bound proves it without branching.
	p := &core.Problem{
		ServerCaps:  []float64{10, 10},
		ClientZones: []int{0, 1},
		NumZones:    2,
		ClientRT:    []float64{1, 1},
		CS:          [][]float64{{50, 400}, {400, 50}},
		SS:          [][]float64{{0, 30}, {30, 0}},
		D:           100,
	}
	res, err := SolveIAP(p, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || !res.Optimal || res.Nodes != 1 {
		t.Fatalf("warm start not kept: %+v", res)
	}
}

func TestSolveIAPInfeasibleErrors(t *testing.T) {
	// Each zone weighs 1, and no server holds more than 0.5.
	p := &core.Problem{
		ServerCaps:  []float64{0.5, 0.5},
		ClientZones: []int{0, 1},
		NumZones:    2,
		ClientRT:    []float64{1, 1},
		CS:          [][]float64{{50, 400}, {400, 50}},
		SS:          [][]float64{{0, 30}, {30, 0}},
		D:           100,
	}
	if _, err := SolveIAP(p, SolverOptions{}); err == nil || !strings.Contains(err.Error(), "no feasible assignment") {
		t.Fatalf("err = %v, want no feasible assignment", err)
	}
}

func TestSolveDeadlineReturnsWarmStart(t *testing.T) {
	rng := xrand.New(61)
	for trial := 0; trial < 20; trial++ {
		p := randomCAP(rng.Split(), true)
		warm := iapWarmStart(p)
		if warm == nil {
			continue
		}
		iap, err := SolveIAP(p, SolverOptions{Deadline: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if iap.Optimal || iap.Cost > core.IAPCost(p, warm) {
			t.Fatalf("trial %d: cut IAP search gave %+v, warm start costs %d", trial, iap, core.IAPCost(p, warm))
		}
		rap, err := SolveRAP(p, warm, SolverOptions{Deadline: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		gc, err := core.GreC(nil, p, warm, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		greC := core.RAPCost(p, &core.Assignment{ZoneServer: warm, ClientContact: gc})
		if rap.LateClients > 0 && rap.Optimal || rap.Cost > greC+1e-9 {
			t.Fatalf("trial %d: cut RAP search gave %+v, GreC costs %v", trial, rap, greC)
		}
	}
}
