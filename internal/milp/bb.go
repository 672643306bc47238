// Package milp solves the paper's initial and refined assignment problems
// exactly. Both are generalized assignment problems (GAPs): each item goes
// to exactly one bin, under per-bin capacities. The solver is a best-first
// branch-and-bound that bounds each node by the Lagrangian relaxation of the
// capacity rows (Ross & Soland 1975). That relaxation has the integrality
// property, so its best bound equals the LP bound (Geoffrion 1974), and a
// subgradient search reaches it without a simplex. It is the reproduction of
// the paper's exact baseline: "the branch-and-bound algorithm implemented in
// the MILP solver lp_solve", which the paper could only run on the two
// smallest configurations — the same practical limit applies here.
package milp

import (
	"container/heap"
	"math"
	"slices"
	"time"
)

const (
	// maxNodes caps the nodes one search explores.
	maxNodes = 100000
	// rootSteps and nodeSteps are the subgradient steps taken at the root
	// and at every other node, which starts from its parent's multipliers.
	rootSteps = 300
	nodeSteps = 100
	// stallSteps without a better bound halve the subgradient's step.
	stallSteps = 10
	// tol absorbs floating-point error in capacity checks and pruning.
	tol = 1e-9
)

// gap is a generalized assignment problem: put each of n items in one of m
// bins, minimising the summed cost, so that each bin's weight stays within
// its capacity. Pairs are item-major: pair (j, i) is index j*m+i.
type gap struct {
	m, n   int
	cost   []float64 // cost of item j in bin i; +Inf forbids the pair
	weight []float64 // weight item j puts on bin i
	cap    []float64
	// integral reports that every cost is an integer, so a bound rounds up.
	integral bool
	// ceiling exceeds the cost of every assignment: the sum over items of
	// their dearest bin, plus one.
	ceiling float64
}

// newGAP builds an n-item GAP over the bins' capacities, reading each pair's
// cost and weight from pair.
func newGAP(n int, caps []float64, pair func(j, i int) (cost, weight float64)) *gap {
	m := len(caps)
	g := &gap{m: m, n: n, cost: make([]float64, n*m), weight: make([]float64, n*m),
		cap: caps, integral: true, ceiling: 1}
	for j := 0; j < n; j++ {
		dearest := 0.0
		for i := 0; i < m; i++ {
			c, w := pair(j, i)
			g.cost[j*m+i], g.weight[j*m+i] = c, w
			g.integral = g.integral && c == math.Trunc(c)
			dearest = math.Max(dearest, c)
		}
		g.ceiling += dearest
	}
	return g
}

// incumbent is the best assignment found so far. Before one is found, x is
// nil and cost is the GAP's ceiling.
type incumbent struct {
	x    []int
	cost float64
}

// offer makes x the incumbent if it fits every capacity and costs less. It
// writes x's bin loads into load.
func (g *gap) offer(inc *incumbent, x []int, load []float64) {
	clear(load)
	var c float64
	for j, i := range x {
		load[i] += g.weight[j*g.m+i]
		c += g.cost[j*g.m+i]
	}
	for i, l := range load {
		if l > g.cap[i]+tol {
			return
		}
	}
	if c < inc.cost-tol {
		inc.x, inc.cost = slices.Clone(x), c
	}
}

// prunes reports that a node bounded below by bound cannot beat the
// incumbent's cost.
func (g *gap) prunes(bound, incumbent float64) bool {
	if g.integral {
		bound = math.Ceil(bound - 1e-7)
	}
	return bound >= incumbent-tol
}

// lagrange raises the Lagrangian bound
//
//	L(λ) = Σ_j min_i (c_ij + λ_i w_ij) − Σ_i λ_i cap_i,  λ ≥ 0,
//
// from the multipliers in lambda by at most steps subgradient steps, each a
// Polyak step toward the incumbent's cost. It leaves the best multipliers
// in lambda and returns the bound there with the assignment x(λ) that
// attains it. Every x(λ) it meets is offered to the incumbent. It stops
// early once the bound prunes. A node whose x(λ) fits every capacity and is
// complementary-slack has L(λ) equal to that x's cost, so it prunes too.
func (g *gap) lagrange(lambda []float64, steps int, inc *incumbent) (float64, []int) {
	m := g.m
	x, bestX := make([]int, g.n), make([]int, g.n)
	load, grad := make([]float64, m), make([]float64, m)
	bestLambda := append([]float64(nil), lambda...)
	best, theta, stall := math.Inf(-1), 2.0, 0
	for step := 0; step < steps; step++ {
		bound := 0.0
		clear(load)
		for j := 0; j < g.n; j++ {
			c, w := g.cost[j*m:(j+1)*m], g.weight[j*m:(j+1)*m]
			low, at := math.Inf(1), -1
			for i := range c {
				if v := c[i] + lambda[i]*w[i]; v < low {
					low, at = v, i
				}
			}
			if at < 0 {
				return math.Inf(1), nil // item j has no bin left
			}
			x[j] = at
			bound += low
			load[at] += w[at]
		}
		for i, l := range lambda {
			bound -= l * g.cap[i]
		}
		if bound > best {
			best, stall = bound, 0
			copy(bestLambda, lambda)
			copy(bestX, x)
		} else if stall++; stall >= stallSteps {
			theta, stall = theta/2, 0
		}
		g.offer(inc, x, load)
		if g.prunes(best, inc.cost) {
			break
		}
		var norm float64
		for i, l := range load {
			grad[i] = l - g.cap[i]
			if lambda[i] == 0 && grad[i] < 0 {
				grad[i] = 0
			}
			norm += grad[i] * grad[i]
		}
		if norm == 0 {
			break
		}
		t := theta * (inc.cost - bound) / norm
		for i := range lambda {
			lambda[i] = math.Max(0, lambda[i]+t*grad[i])
		}
	}
	copy(lambda, bestLambda)
	return best, bestX
}

// node is a subproblem: its parent's plus one decision, item fixed to bin
// or forbidden from it, and the pairs the parent's reduced costs cut. bound
// and lambda are the parent's, the child's lower bound and its warm start.
type node struct {
	parent    *node
	item, bin int
	fix       bool
	cuts      []int
	bound     float64
	lambda    []float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// restrict returns the node's GAP, writing its costs into cost: g's costs
// with every pair the node's decisions and cuts rule out set to +Inf. It
// reports false when the items left with a single bin already overfill a
// bin.
func (g *gap) restrict(nd *node, cost []float64) (*gap, bool) {
	m := g.m
	copy(cost, g.cost)
	for d := nd; d.parent != nil; d = d.parent {
		row := cost[d.item*m : (d.item+1)*m]
		for i := range row {
			if (i == d.bin) != d.fix {
				row[i] = math.Inf(1)
			}
		}
		for _, pair := range d.cuts {
			cost[pair] = math.Inf(1)
		}
	}
	load := make([]float64, m)
	for j := 0; j < g.n; j++ {
		if at := onlyBin(cost[j*m : (j+1)*m]); at >= 0 {
			load[at] += g.weight[j*m+at]
		}
	}
	for i, l := range load {
		if l > g.cap[i]+tol {
			return nil, false
		}
	}
	sub := *g
	sub.cost = cost
	return &sub, true
}

// onlyBin returns the one bin with a finite cost in row, or -1 when there
// are none or several.
func onlyBin(row []float64) int {
	at := -1
	for i, c := range row {
		if !math.IsInf(c, 1) {
			if at >= 0 {
				return -1
			}
			at = i
		}
	}
	return at
}

// reducedCostCuts returns the pairs that no assignment in this node's
// subtree can use and beat the incumbent: putting item j in bin i raises
// L(λ) by at least its reduced cost, c_ij + λ_i·w_ij less item j's cheapest
// priced bin, and a pair is cut when the raised bound prunes.
func (g *gap) reducedCostCuts(bound float64, x []int, lambda []float64, incumbent float64) []int {
	var cuts []int
	for j, at := range x {
		c, w := g.cost[j*g.m:(j+1)*g.m], g.weight[j*g.m:(j+1)*g.m]
		low := c[at] + lambda[at]*w[at]
		for i := range c {
			if !math.IsInf(c[i], 1) && g.prunes(bound+c[i]+lambda[i]*w[i]-low, incumbent) {
				cuts = append(cuts, j*g.m+i)
			}
		}
	}
	return cuts
}

// branchItem picks the item to branch on given x(λ). It prefers an item
// whose bin or next-best bin carries a price (λ_i·w_ij > 0), and of those
// the one whose next-best bin, priced by λ, costs the least more than its
// own (the smallest regret): the nearest to splitting between two bins in
// the relaxation's LP solution, like the LP's most fractional variable. A
// tie between unpriced bins costs no capacity, so branching on it leaves
// the bound where it was. Without a priced item it takes the largest regret
// among the items that load the most overloaded bin, then among all items.
// It returns -1 when every item has a single bin left.
func (g *gap) branchItem(x []int, lambda []float64) int {
	m := g.m
	load := make([]float64, m)
	for j, i := range x {
		load[i] += g.weight[j*m+i]
	}
	over, worst := -1, tol
	for i, l := range load {
		if l-g.cap[i] > worst {
			over, worst = i, l-g.cap[i]
		}
	}
	// The largest key wins: its class first (2 priced, 1 loading the most
	// overloaded bin, 0 any other), then its score within the class.
	pick, best := -1, [2]float64{-1, 0}
	for j, at := range x {
		c, w := g.cost[j*m:(j+1)*m], g.weight[j*m:(j+1)*m]
		next, nb := math.Inf(1), -1
		for i := range c {
			if v := c[i] + lambda[i]*w[i]; i != at && v < next {
				next, nb = v, i
			}
		}
		if nb < 0 {
			continue
		}
		regret := next - (c[at] + lambda[at]*w[at])
		key := [2]float64{0, regret}
		switch {
		case lambda[at]*w[at] > 0 || lambda[nb]*w[nb] > 0:
			key = [2]float64{2, -regret}
		case at == over && w[at] > 0:
			key[0] = 1
		}
		if key[0] > best[0] || key[0] == best[0] && key[1] > best[1] {
			pick, best = j, key
		}
	}
	return pick
}

// gapSolution is a search's outcome.
type gapSolution struct {
	x       []int // item → bin; nil when no feasible assignment was found
	cost    float64
	nodes   int
	optimal bool // the search was exhausted, not cut by its limits
}

// solve minimises g by best-first branch-and-bound, seeded with warm (nil
// when none is known). A search cut by the deadline (zero: none) or the
// node cap returns its incumbent with optimal false.
func (g *gap) solve(warm []int, deadline time.Duration) gapSolution {
	start := time.Now()
	inc := incumbent{cost: g.ceiling}
	if warm != nil {
		g.offer(&inc, warm, make([]float64, g.m))
	}
	open := &nodeHeap{{bound: math.Inf(-1), lambda: make([]float64, g.m)}}
	cost := make([]float64, len(g.cost))
	nodes := 0
	for open.Len() > 0 {
		if nodes >= maxNodes || deadline > 0 && time.Since(start) > deadline {
			return gapSolution{x: inc.x, cost: inc.cost, nodes: nodes}
		}
		nd := heap.Pop(open).(*node)
		if g.prunes(nd.bound, inc.cost) {
			continue
		}
		nodes++
		sub, ok := g.restrict(nd, cost)
		if !ok {
			continue
		}
		steps := nodeSteps
		if nd.parent == nil {
			steps = rootSteps
		}
		lambda := append([]float64(nil), nd.lambda...)
		bound, x := sub.lagrange(lambda, steps, &inc)
		if g.prunes(bound, inc.cost) {
			continue
		}
		// With a single bin left for every item, x is the node's only
		// assignment, and lagrange has offered it.
		if j := sub.branchItem(x, lambda); j >= 0 {
			cuts := sub.reducedCostCuts(bound, x, lambda, inc.cost)
			for _, fix := range []bool{false, true} {
				heap.Push(open, &node{parent: nd, item: j, bin: x[j], fix: fix, cuts: cuts, bound: bound, lambda: lambda})
			}
		}
	}
	return gapSolution{x: inc.x, cost: inc.cost, nodes: nodes, optimal: inc.x != nil}
}
