package milp

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

// table builds an n-item GAP from item-major cost and weight rows.
func table(caps []float64, cost, weight [][]float64) *gap {
	return newGAP(len(cost), caps, func(j, i int) (float64, float64) {
		return cost[j][i], weight[j][i]
	})
}

// ones returns n rows of m unit weights.
func ones(n, m int) [][]float64 {
	w := make([][]float64, n)
	for j := range w {
		w[j] = slices.Repeat([]float64{1}, m)
	}
	return w
}

// bruteGAP enumerates every assignment of g and returns the cheapest one
// that fits, or nil and +Inf when none does.
func bruteGAP(g *gap) ([]int, float64) {
	best, bestX := math.Inf(1), []int(nil)
	x := make([]int, g.n)
	load := make([]float64, g.m)
	var rec func(j int, c float64)
	rec = func(j int, c float64) {
		if j == g.n {
			if c < best {
				best, bestX = c, slices.Clone(x)
			}
			return
		}
		for i := 0; i < g.m; i++ {
			w := g.weight[j*g.m+i]
			if load[i]+w > g.cap[i]+tol {
				continue
			}
			load[i] += w
			x[j] = i
			rec(j+1, c+g.cost[j*g.m+i])
			load[i] -= w
		}
	}
	rec(0, 0)
	return bestX, best
}

// randomGAP draws a GAP of 2–3 bins and 3–7 items with weights in [0.5, 2]
// and capacities of 0.8–1.6× a bin's share of the mean load; costs are
// integers when integral is set. Some draws have no feasible assignment.
func randomGAP(rng *xrand.RNG, integral bool) *gap {
	m, n := rng.IntRange(2, 3), rng.IntRange(3, 7)
	cost, weight := make([][]float64, n), make([][]float64, n)
	var total float64
	for j := range cost {
		cost[j], weight[j] = make([]float64, m), make([]float64, m)
		for i := range cost[j] {
			cost[j][i] = rng.Uniform(0, 10)
			if integral {
				cost[j][i] = math.Floor(cost[j][i])
			}
			weight[j][i] = rng.Uniform(0.5, 2)
			total += weight[j][i] / float64(m)
		}
	}
	caps := make([]float64, m)
	for i := range caps {
		caps[i] = total / float64(m) * rng.Uniform(0.8, 1.6)
	}
	return table(caps, cost, weight)
}

func TestNewGAPLaysPairsOutItemMajor(t *testing.T) {
	g := newGAP(2, []float64{3, 4}, func(j, i int) (float64, float64) {
		return float64(10*j + i), float64(j) + float64(i)/2
	})
	if g.m != 2 || g.n != 2 {
		t.Fatalf("m, n = %d, %d, want 2, 2", g.m, g.n)
	}
	if want := []float64{0, 1, 10, 11}; !slices.Equal(g.cost, want) {
		t.Fatalf("cost = %v, want %v", g.cost, want)
	}
	if want := []float64{0, 0.5, 1, 1.5}; !slices.Equal(g.weight, want) {
		t.Fatalf("weight = %v, want %v", g.weight, want)
	}
	// One more than the dearest bin of item 0 (1) and of item 1 (11).
	if g.ceiling != 13 {
		t.Fatalf("ceiling = %v, want 13", g.ceiling)
	}
	if !g.integral {
		t.Fatal("integer costs not reported integral")
	}
}

func TestNewGAPFractionalCostIsNotIntegral(t *testing.T) {
	g := table([]float64{1, 1}, [][]float64{{1, 2}, {3, 4.5}}, ones(2, 2))
	if g.integral {
		t.Fatal("a cost of 4.5 left the GAP integral")
	}
}

func TestOfferKeepsOnlyCheaperFeasibleAssignments(t *testing.T) {
	g := table([]float64{1, 1}, [][]float64{{1, 2}, {3, 4}}, ones(2, 2))
	inc := incumbent{cost: g.ceiling}
	load := make([]float64, 2)
	g.offer(&inc, []int{0, 0}, load) // bin 0 carries 2 > 1
	if inc.x != nil {
		t.Fatalf("an overfilled assignment became the incumbent: %v", inc.x)
	}
	if !slices.Equal(load, []float64{2, 0}) {
		t.Fatalf("load = %v, want [2 0]", load)
	}
	x := []int{0, 1}
	g.offer(&inc, x, load)
	if !slices.Equal(inc.x, []int{0, 1}) || inc.cost != 5 {
		t.Fatalf("incumbent = %v at %v, want [0 1] at 5", inc.x, inc.cost)
	}
	x[0] = 1 // the incumbent is a copy
	if inc.x[0] != 0 {
		t.Fatal("offer kept the caller's slice")
	}
	g.offer(&inc, []int{1, 0}, load) // fits, but costs 5 too
	if !slices.Equal(inc.x, []int{0, 1}) {
		t.Fatalf("a tie replaced the incumbent: %v", inc.x)
	}
}

func TestPrunesRoundsUpOnlyIntegralBounds(t *testing.T) {
	integral := table([]float64{1}, [][]float64{{1}}, ones(1, 1))
	fractional := table([]float64{1}, [][]float64{{1.5}}, ones(1, 1))
	for _, tc := range []struct {
		g                *gap
		bound, incumbent float64
		want             bool
	}{
		{integral, 2.3, 3, true},         // no integer cost lies in (2.3, 3)
		{integral, 2 + 1e-8, 3, false},   // float noise above 2 is not rounded up
		{integral, 1.9, 3, false},        // a cost of 2 could still beat 3
		{fractional, 2.3, 3, false},      // 2.5 could beat 3
		{fractional, 3 - 1e-10, 3, true}, // within tol of the incumbent
		{fractional, math.Inf(-1), 3, false},
		{fractional, math.Inf(1), 3, true},
	} {
		if got := tc.g.prunes(tc.bound, tc.incumbent); got != tc.want {
			t.Errorf("integral=%v prunes(%v, %v) = %v, want %v",
				tc.g.integral, tc.bound, tc.incumbent, got, tc.want)
		}
	}
}

func TestLagrangeAtZeroPricesTakesCheapestBins(t *testing.T) {
	// Capacities never bind, so x(0) fits, is offered, and its cost equals
	// the bound: the search stops after one step with the prices untouched.
	g := table([]float64{10, 10, 10}, [][]float64{{3, 1, 2}, {5, 4, 6}}, ones(2, 3))
	inc := incumbent{cost: g.ceiling}
	lambda := make([]float64, 3)
	bound, x := g.lagrange(lambda, rootSteps, &inc)
	if bound != 5 || !slices.Equal(x, []int{1, 1}) {
		t.Fatalf("bound, x = %v, %v, want 5, [1 1]", bound, x)
	}
	if !slices.Equal(inc.x, []int{1, 1}) || inc.cost != 5 {
		t.Fatalf("incumbent = %v at %v, want [1 1] at 5", inc.x, inc.cost)
	}
	if !slices.Equal(lambda, []float64{0, 0, 0}) {
		t.Fatalf("lambda = %v, want zeros", lambda)
	}
}

func TestLagrangeClosesTheGapOnOneSlot(t *testing.T) {
	// Two items both cost 0 in bin 0, which holds one of them, and 1 in
	// bin 1. The LP bound, and the optimum, is 1; L(λ) = min(λ, 2−λ).
	g := table([]float64{1, 10}, [][]float64{{0, 1}, {0, 1}}, ones(2, 2))
	inc := incumbent{cost: g.ceiling}
	lambda := make([]float64, 2)
	bound, _ := g.lagrange(lambda, rootSteps, &inc)
	if bound > 1+1e-9 {
		t.Fatalf("bound %v exceeds the optimum 1", bound)
	}
	if bound < 1-1e-6 {
		t.Fatalf("bound %v falls short of the LP bound 1", bound)
	}
	if !g.prunes(bound, 1) {
		t.Fatalf("bound %v does not prove that no assignment costs less than 1", bound)
	}
	if got := g.lagrangeValue(lambda); math.Abs(got-bound) > 1e-9 {
		t.Fatalf("returned bound %v, but L at the returned prices is %v", bound, got)
	}
}

// lagrangeValue evaluates L(λ) directly.
func (g *gap) lagrangeValue(lambda []float64) float64 {
	var v float64
	for j := 0; j < g.n; j++ {
		low := math.Inf(1)
		for i := 0; i < g.m; i++ {
			low = math.Min(low, g.cost[j*g.m+i]+lambda[i]*g.weight[j*g.m+i])
		}
		v += low
	}
	for i, l := range lambda {
		v -= l * g.cap[i]
	}
	return v
}

func TestLagrangeBoundNeverExceedsOptimum(t *testing.T) {
	rng := xrand.New(5)
	checked := 0
	for trial := 0; trial < 80; trial++ {
		g := randomGAP(rng.Split(), trial%2 == 0)
		_, opt := bruteGAP(g)
		if math.IsInf(opt, 1) {
			continue
		}
		checked++
		inc := incumbent{cost: g.ceiling}
		lambda := make([]float64, g.m)
		bound, x := g.lagrange(lambda, rootSteps, &inc)
		if bound > opt+1e-9 {
			t.Fatalf("trial %d: bound %v above the optimum %v", trial, bound, opt)
		}
		if got := g.lagrangeValue(lambda); math.Abs(got-bound) > 1e-9 {
			t.Fatalf("trial %d: bound %v, L(λ) %v", trial, bound, got)
		}
		if inc.x != nil && inc.cost < opt-1e-9 {
			t.Fatalf("trial %d: incumbent %v below the optimum %v", trial, inc.cost, opt)
		}
		if len(x) != g.n {
			t.Fatalf("trial %d: x has %d items, want %d", trial, len(x), g.n)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d feasible draws", checked)
	}
}

func TestLagrangeItemWithoutBinIsInfeasible(t *testing.T) {
	g := table([]float64{5, 5}, [][]float64{{1, 2}, {3, 4}}, ones(2, 2))
	cost := slices.Clone(g.cost)
	cost[2], cost[3] = math.Inf(1), math.Inf(1) // item 1 has no bin
	sub := *g
	sub.cost = cost
	inc := incumbent{cost: g.ceiling}
	bound, x := sub.lagrange(make([]float64, 2), rootSteps, &inc)
	if !math.IsInf(bound, 1) || x != nil {
		t.Fatalf("bound, x = %v, %v, want +Inf, nil", bound, x)
	}
	if inc.x != nil {
		t.Fatalf("an infeasible node offered %v", inc.x)
	}
}

func TestRestrictAppliesDecisionsAndCuts(t *testing.T) {
	cost := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	g := table([]float64{10, 10, 10}, cost, ones(3, 3))
	root := &node{}
	fixed := &node{parent: root, item: 0, bin: 1, fix: true}
	forbidden := &node{parent: fixed, item: 2, bin: 0, cuts: []int{1*3 + 2}}
	buf := make([]float64, 9)
	sub, ok := g.restrict(forbidden, buf)
	if !ok {
		t.Fatal("restrict refused a node that fits")
	}
	inf := math.Inf(1)
	want := []float64{inf, 2, inf, 4, 5, inf, inf, 8, 9}
	if !slices.Equal(sub.cost, want) {
		t.Fatalf("restricted cost = %v, want %v", sub.cost, want)
	}
	if &sub.cost[0] != &buf[0] {
		t.Fatal("restrict did not write into the buffer it was given")
	}
	if !slices.Equal(g.cost, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("restrict changed the GAP's own costs: %v", g.cost)
	}
	if sub.ceiling != g.ceiling || sub.integral != g.integral {
		t.Fatal("restrict changed the ceiling or integrality")
	}
}

func TestRestrictRefusesOverfilledSingleBinItems(t *testing.T) {
	g := table([]float64{1, 1}, [][]float64{{1, 2}, {3, 4}}, ones(2, 2))
	root := &node{}
	buf := make([]float64, 4)
	// Item 0 fixed to bin 0 and item 1 forbidden from bin 1: both are left
	// with bin 0 alone, which holds one.
	a := &node{parent: root, item: 0, bin: 0, fix: true}
	if _, ok := g.restrict(&node{parent: a, item: 1, bin: 1}, buf); ok {
		t.Fatal("restrict admitted two single-bin items in a one-item bin")
	}
	if _, ok := g.restrict(&node{parent: a, item: 1, bin: 1, fix: true}, buf); !ok {
		t.Fatal("restrict refused one item per bin")
	}
}

func TestOnlyBin(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		row  []float64
		want int
	}{
		{nil, -1},
		{[]float64{inf, inf}, -1},
		{[]float64{inf, 3, inf}, 1},
		{[]float64{0}, 0},
		{[]float64{1, 2}, -1},
		{[]float64{1, inf, 2}, -1},
	} {
		if got := onlyBin(tc.row); got != tc.want {
			t.Errorf("onlyBin(%v) = %d, want %d", tc.row, got, tc.want)
		}
	}
}

func TestReducedCostCutsHandComputed(t *testing.T) {
	caps := []float64{1, 10, 10}
	cost := [][]float64{{1, 1.5, 4.5}, {2, 2.5, 9}}
	g := table(caps, cost, ones(2, 3))
	// At zero prices x = [0 0] and L = 3; a pair is cut when its reduced
	// cost lifts 3 to the incumbent 5: only the bin-2 pairs (3.5 and 7).
	if got := g.reducedCostCuts(3, []int{0, 0}, []float64{0, 0, 0}, 5); !slices.Equal(got, []int{2, 5}) {
		t.Fatalf("cuts at zero prices = %v, want [2 5]", got)
	}
	// Priced at λ = (2, 0, 0), x = [1 1] and L = 1.5 + 2.5 − 2 = 2; bin 0
	// now costs 1.5 more for both items, bin 2 3 and 6.5 more. Against 3.4
	// every reduced cost of at least 1.4 is cut.
	lambda := []float64{2, 0, 0}
	if got := g.reducedCostCuts(2, []int{1, 1}, lambda, 3.4); !slices.Equal(got, []int{0, 2, 3, 5}) {
		t.Fatalf("cuts at λ = %v: %v, want [0 2 3 5]", lambda, got)
	}
	if got := g.reducedCostCuts(2, []int{1, 1}, lambda, 3.6); !slices.Equal(got, []int{2, 5}) {
		t.Fatalf("cuts at λ = %v against 3.6: %v, want [2 5]", lambda, got)
	}
	// A pair already ruled out is not cut again.
	sub := *g
	sub.cost = slices.Clone(g.cost)
	sub.cost[5] = math.Inf(1)
	if got := sub.reducedCostCuts(2, []int{1, 1}, lambda, 3.6); !slices.Equal(got, []int{2}) {
		t.Fatalf("cuts with pair 5 forbidden = %v, want [2]", got)
	}
}

func TestBranchItemPrefersPricedSmallestRegret(t *testing.T) {
	cost := [][]float64{{0, 5}, {0, 1}, {0, 3}}
	g := table([]float64{1, 10}, cost, ones(3, 2))
	// Priced at λ0 = 0.5 every item stays in bin 0 with regrets 4.5, 0.5
	// and 2.5: item 1 is the nearest to splitting.
	if got := g.branchItem([]int{0, 0, 0}, []float64{0.5, 0}); got != 1 {
		t.Fatalf("branchItem = %d, want 1", got)
	}
}

func TestBranchItemWithoutPricesTakesOverloadedLargestRegret(t *testing.T) {
	cost := [][]float64{{0, 5}, {0, 1}, {0, 3}, {7, 0}}
	x, lambda := []int{0, 0, 0, 1}, []float64{0, 0}
	// Bin 0 holds one item but carries three: of those, item 0 has the
	// largest regret; item 3 regrets more but loads a bin with room.
	g := table([]float64{1, 10}, cost, ones(4, 2))
	if got := g.branchItem(x, lambda); got != 0 {
		t.Fatalf("branchItem with bin 0 overloaded = %d, want 0", got)
	}
	// With room everywhere the largest regret overall wins.
	g = table([]float64{10, 10}, cost, ones(4, 2))
	if got := g.branchItem(x, lambda); got != 3 {
		t.Fatalf("branchItem with room everywhere = %d, want 3", got)
	}
}

func TestBranchItemNoneWhenEveryItemHasOneBin(t *testing.T) {
	inf := math.Inf(1)
	g := table([]float64{1, 1}, [][]float64{{0, inf}, {inf, 2}}, ones(2, 2))
	if got := g.branchItem([]int{0, 1}, []float64{0, 0}); got != -1 {
		t.Fatalf("branchItem = %d, want -1", got)
	}
}

func TestNodeHeapPopsSmallestBoundFirst(t *testing.T) {
	h := &nodeHeap{}
	for _, b := range []float64{3, math.Inf(-1), 1, 2} {
		heap.Push(h, &node{bound: b})
	}
	var got []float64
	for h.Len() > 0 {
		got = append(got, heap.Pop(h).(*node).bound)
	}
	if want := []float64{math.Inf(-1), 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

func TestGAPSolveMatchesBruteForce(t *testing.T) {
	rng := xrand.New(17)
	feasible, infeasible := 0, 0
	for trial := 0; trial < 120; trial++ {
		g := randomGAP(rng.Split(), trial%2 == 0)
		_, opt := bruteGAP(g)
		sol := g.solve(nil, 0)
		if math.IsInf(opt, 1) {
			infeasible++
			if sol.x != nil || sol.optimal {
				t.Fatalf("trial %d: infeasible GAP solved as %v (optimal %v)", trial, sol.x, sol.optimal)
			}
			continue
		}
		feasible++
		if !sol.optimal || sol.x == nil {
			t.Fatalf("trial %d: not proven optimal: %+v", trial, sol)
		}
		if math.Abs(sol.cost-opt) > 1e-9 {
			t.Fatalf("trial %d: cost %v, brute force %v", trial, sol.cost, opt)
		}
		inc := incumbent{cost: math.Inf(1)}
		g.offer(&inc, sol.x, make([]float64, g.m))
		if inc.x == nil || math.Abs(inc.cost-sol.cost) > 1e-9 {
			t.Fatalf("trial %d: solution %v does not fit or does not cost %v", trial, sol.x, sol.cost)
		}
	}
	if feasible < 40 || infeasible < 5 {
		t.Fatalf("draws: %d feasible, %d infeasible; adjust randomGAP", feasible, infeasible)
	}
}

func TestGAPSolveOneSlotProvesOptimum(t *testing.T) {
	g := table([]float64{1, 10}, [][]float64{{0, 1}, {0, 1}}, ones(2, 2))
	sol := g.solve(nil, 0)
	if !sol.optimal || sol.cost != 1 {
		t.Fatalf("solution %+v, want cost 1 proven", sol)
	}
	if sol.x[0] == sol.x[1] {
		t.Fatalf("x = %v puts both items in one bin", sol.x)
	}
}

func TestGAPSolveRefusesInfeasibleWarmStart(t *testing.T) {
	// The warm start overfills bin 0; the search must not keep it.
	g := table([]float64{1, 1}, [][]float64{{0, 3}, {0, 4}}, ones(2, 2))
	sol := g.solve([]int{0, 0}, 0)
	if !sol.optimal || sol.cost != 3 || !slices.Equal(sol.x, []int{1, 0}) {
		t.Fatalf("solution %+v, want [1 0] at 3 proven", sol)
	}
}

func TestGAPSolveSingleBinOverfillNeedsOneNode(t *testing.T) {
	// One bin holding 1.5 of two unit items: the root refuses at once.
	g := table([]float64{1.5}, [][]float64{{1}, {2}}, ones(2, 1))
	sol := g.solve(nil, 0)
	if sol.x != nil || sol.optimal || sol.nodes != 1 {
		t.Fatalf("solution %+v, want no assignment after 1 node", sol)
	}
}

func TestSolveRAPForwardingWeighsTwiceClientRT(t *testing.T) {
	// Zone 0 (clients 0 and 1, R = 1 each) is on server 0, zone 1 (client
	// 2, R = 2) on server 1, leaving 2 units on each. Clients 0 and 1 are
	// late at 300 and 250 ms but on time through server 1; forwarding one
	// takes 2·R = 2 units there, so only one can go: client 0, which saves
	// more, leaving client 1's 150 ms over the bound.
	p := &core.Problem{
		ServerCaps:  []float64{4, 4},
		ClientZones: []int{0, 0, 1},
		NumZones:    2,
		ClientRT:    []float64{1, 1, 2},
		CS:          [][]float64{{300, 10}, {250, 10}, {10, 50}},
		SS:          [][]float64{{0, 20}, {20, 0}},
		D:           100,
	}
	res, err := SolveRAP(p, []int{0, 1}, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.LateClients != 2 || res.Cost != 150 {
		t.Fatalf("result %+v, want 2 late clients, cost 150, proven", res)
	}
	if want := []int{1, 0, 1}; !slices.Equal(res.ClientContact, want) {
		t.Fatalf("contacts %v, want %v", res.ClientContact, want)
	}
}

func TestSolveRAPWithoutResidualKeepsTargets(t *testing.T) {
	// Each zone fills its server exactly: contact = target weighs nothing,
	// so the late clients stay there whatever rerouting would save.
	p := &core.Problem{
		ServerCaps:  []float64{2, 2},
		ClientZones: []int{0, 0, 1, 1},
		NumZones:    2,
		ClientRT:    []float64{1, 1, 1, 1},
		CS:          [][]float64{{500, 10}, {400, 10}, {10, 300}, {10, 50}},
		SS:          [][]float64{{0, 20}, {20, 0}},
		D:           100,
	}
	res, err := SolveRAP(p, []int{0, 1}, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 1, 1}; !slices.Equal(res.ClientContact, want) {
		t.Fatalf("contacts %v, want %v", res.ClientContact, want)
	}
	if !res.Optimal || res.LateClients != 3 || res.Cost != 400+300+200 {
		t.Fatalf("result %+v, want 3 late clients at cost 900, proven", res)
	}
}
