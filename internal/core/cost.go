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

// regretChoice is one item's (a zone's in GreZ, a late client's in GreC)
// entry in a greedy phase's regret order: its most and second most
// desirable server under the total order (µ desc, index asc). The regret ρ
// needs nothing beyond those two.
type regretChoice struct {
	item         int
	best, second int32   // second is -1 when there is only one server
	regret       float64 // µ[best] − µ[second]; 0 when only one server exists
}

// topTwo returns item's choice over the µ row mu from one scan: ties keep
// the lower server index, so best and second are exactly the first two
// entries a full sort by (µ desc, index asc) would produce.
func topTwo(item int, mu []float64) regretChoice {
	best, second := 0, -1
	for i := 1; i < len(mu); i++ {
		switch {
		case mu[i] > mu[best]:
			best, second = i, best
		case second < 0 || mu[i] > mu[second]:
			second = i
		}
	}
	c := regretChoice{item: item, best: int32(best), second: int32(second)}
	if second >= 0 {
		// The paper's ρ: the gap between the best and second-best
		// desirability — the "regret" of not taking the best server.
		c.regret = mu[best] - mu[second]
	}
	return c
}

// sortChoicesByRegret orders items by (regret desc, item asc), the
// processing order of the paper's greedy loops (Figs. 2 and 3). The item
// tie-break makes the order total, so the unstable sort is deterministic.
func sortChoicesByRegret(choices []regretChoice) {
	slices.SortFunc(choices, func(x, y regretChoice) int {
		return cmpRegret(x.regret, y.regret, x.item, y.item)
	})
}

// mergeByRegret merges kept, in regret order, into dst, whose first nf
// entries are in regret order and which has room for both runs: from the
// back, so no fresh entry is overwritten before it is moved.
func mergeByRegret(dst []regretChoice, nf int, kept []regretChoice) {
	f, k := nf-1, len(kept)-1
	for x := nf + len(kept) - 1; k >= 0; x-- {
		if f >= 0 && cmpRegret(dst[f].regret, kept[k].regret, dst[f].item, kept[k].item) > 0 {
			dst[x], f = dst[f], f-1
		} else {
			dst[x], k = kept[k], k-1
		}
	}
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

// placement is the step both greedy phases share: "the most desirable
// server with sufficient capacity" (Figs. 2 and 3) against the running
// loads. Whether a server accepts an item depends on the loads alone, never
// on how far down a preference list the item has come — so the most
// desirable of the servers that accept is the server a walk down the sorted
// list stops at, and no list is ever built.
type placement struct {
	loads, caps []float64
	opt         Options
}

// accepts reports whether server s takes `need` more load.
func (pm *placement) accepts(s int, need float64) bool {
	return !pm.opt.cordoned(s) && almostLE(pm.loads[s]+need, pm.caps[s])
}

// kept returns the first of c's two kept candidates that accepts need, or
// -1 when both refuse. free names a server that accepts regardless (a
// client's target: no forwarding, no extra load), -1 for none.
func (pm *placement) kept(c regretChoice, need float64, free int) int {
	for _, s := range [2]int{int(c.best), int(c.second)} {
		if s >= 0 && (s == free || pm.accepts(s, need)) {
			return s
		}
	}
	return -1
}

// third is the on-demand choice of an item both kept candidates refused:
// the arg-max of its µ row, under the same total order, over the servers
// that accept — -1 when none does.
func (pm *placement) third(mu []float64, need float64, free int) int {
	best := -1
	for i, v := range mu {
		if (best < 0 || v > mu[best]) && (i == free || pm.accepts(i, need)) {
			best = i
		}
	}
	return best
}
