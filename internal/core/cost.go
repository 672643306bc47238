package core

import "slices"

// InitialCosts computes the IAP cost matrix of Equation (3):
// CI[i][j] = |{c in zone j : d(c, s_i) > D}| — the number of clients of
// zone j left without QoS if zone j is hosted on server i.
// The result is indexed [server][zone] and freshly allocated; the greedy
// algorithms go through Workspace.initialCostsParallel to reuse buffers
// instead.
func InitialCosts(p *Problem) [][]int {
	var w Workspace
	return w.initialCostsParallel(p, 1, nil)
}

// RefinedCost computes the RAP cost metric of Equation (8) for selecting
// server i as the contact of client j whose target server is t:
// how far the resulting effective delay overshoots the bound (0 if within).
func RefinedCost(p *Problem, j, i, t int) float64 {
	return refinedCost(p, p.CSAt(j, i), i, t)
}

// refinedCost is RefinedCost given d = CS[j][i], the client's delay to i.
func refinedCost(p *Problem, d float64, i, t int) float64 {
	if i != t {
		d += p.SS[i][t]
	}
	if d > p.D {
		return d - p.D
	}
	return 0
}

// refinedDesirability fills mu with the RAP desirability µ[i] = −RefinedCost
// of every candidate contact server i for a client with delay row `row` and
// target server t: a whole µ row from one delay-row read.
func refinedDesirability(p *Problem, row []float64, t int, mu []float64) {
	for i := range mu {
		mu[i] = -refinedCost(p, row[i], i, t)
	}
}

// desirabilityList is a server preference list for one item (zone or
// client): servers sorted by descending desirability µ = -cost, ties broken
// by ascending server index so every algorithm is deterministic.
type desirabilityList struct {
	item    int       // zone or client index
	servers []int     // candidate servers, best first
	mu      []float64 // µ value per entry of servers
	regret  float64   // µ[0] - µ[1]; 0 when only one server exists
}

// buildDesirability constructs the sorted preference list for one item
// given its per-server desirability values, allocating fresh backing.
func buildDesirability(item int, mu []float64) desirabilityList {
	m := len(mu)
	return buildDesirabilityInto(item, mu, make([]int, m), make([]float64, m))
}

// buildDesirabilityInto is buildDesirability writing into caller-provided
// backing slices (each of length len(mu)), so preference-list construction
// over many items reuses one flat allocation (see Workspace.desirability).
func buildDesirabilityInto(item int, mu []float64, servers []int, muSorted []float64) desirabilityList {
	m := len(mu)
	preferenceOrder(mu, servers)
	for idx, s := range servers {
		muSorted[idx] = mu[s]
	}
	dl := desirabilityList{item: item, servers: servers, mu: muSorted}
	if m >= 2 {
		// The paper's ρ: the gap between the best and second-best
		// desirability — the "regret" of not taking the best server.
		dl.regret = muSorted[0] - muSorted[1]
	}
	return dl
}

// preferenceOrder fills servers (len(mu) entries) with every server index,
// most desirable first. (µ desc, index asc) is a total order, so the
// unstable sort is deterministic — and any prefix of the result can be
// found without sorting by scanning µ in index order (GreC's two
// candidates are exactly servers[0] and servers[1]).
func preferenceOrder(mu []float64, servers []int) {
	for i := range servers {
		servers[i] = i
	}
	slices.SortFunc(servers, func(a, b int) int {
		if mu[a] != mu[b] {
			if mu[a] > mu[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
}

// contactChoice is one late client's entry in GreC's regret order: its
// most and second most desirable contact server under preferenceOrder's
// total order. The regret ρ needs nothing beyond those two.
type contactChoice struct {
	client       int
	best, second int32   // second is -1 when there is only one server
	regret       float64 // µ[best] − µ[second]; 0 when only one server exists
}

// sortChoicesByRegret orders GreC's late clients like sortByRegret orders
// preference lists: (regret desc, client asc).
func sortChoicesByRegret(choices []contactChoice) {
	slices.SortFunc(choices, func(x, y contactChoice) int {
		return cmpRegret(x.regret, y.regret, x.client, y.client)
	})
}

// sortByRegret orders lists by (regret desc, item asc), the processing
// order of the paper's greedy loops (Figs. 2 and 3). The item tie-break
// makes the order total, so the unstable sort is deterministic.
func sortByRegret(lists []desirabilityList) {
	slices.SortFunc(lists, func(x, y desirabilityList) int {
		return cmpRegret(x.regret, y.regret, x.item, y.item)
	})
}

// cmpRegret compares two entries of a regret order: larger regret first,
// then smaller item index.
func cmpRegret(rx, ry float64, ix, iy int) int {
	if rx != ry {
		if rx > ry {
			return -1
		}
		return 1
	}
	return ix - iy
}
