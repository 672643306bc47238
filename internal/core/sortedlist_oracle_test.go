package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"dvecap/internal/xrand"
)

// The sorted-list form of the paper's greedy loops, kept as the reference
// the sort-free phases are held to: every item's servers fully ordered by
// (µ desc, index asc), the item placed on the first entry that accepts it.
// Both phases ran on this until they kept two candidates and an on-demand
// third choice instead; nothing outside the tests calls it.

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
// given its per-server desirability values.
func buildDesirability(item int, mu []float64) desirabilityList {
	m := len(mu)
	servers, muSorted := make([]int, m), make([]float64, m)
	preferenceOrder(mu, servers)
	for idx, s := range servers {
		muSorted[idx] = mu[s]
	}
	dl := desirabilityList{item: item, servers: servers, mu: muSorted}
	if m >= 2 {
		dl.regret = muSorted[0] - muSorted[1]
	}
	return dl
}

// preferenceOrder fills servers (len(mu) entries) with every server index,
// most desirable first. (µ desc, index asc) is a total order, so the
// unstable sort is deterministic.
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

// sortByRegret orders lists by (regret desc, item asc).
func sortByRegret(lists []desirabilityList) {
	slices.SortFunc(lists, func(x, y desirabilityList) int {
		return cmpRegret(x.regret, y.regret, x.item, y.item)
	})
}

// referenceGreZ is the sorted-list GreZ. deepest is the worst list position
// any zone was placed at, spills how many zones no server accepted.
func referenceGreZ(p *Problem, opt Options, bias func(server, zone int) float64) (target []int, deepest, spills int, err error) {
	ci := InitialCosts(p)
	m, n := p.NumServers(), p.NumZones
	zoneRT := p.ZoneRT()
	lists := make([]desirabilityList, n)
	mu := make([]float64, m)
	for z := 0; z < n; z++ {
		for i := 0; i < m; i++ {
			mu[i] = -float64(ci[i][z])
			if bias != nil {
				mu[i] += bias(i, z)
			}
		}
		lists[z] = buildDesirability(z, mu)
	}
	sortByRegret(lists)

	loads := make([]float64, m)
	target = make([]int, n)
	for _, dl := range lists {
		z := dl.item
		s := -1
		for pos, c := range dl.servers {
			if !opt.cordoned(c) && almostLE(loads[c]+zoneRT[z], p.ServerCaps[c]) {
				s, deepest = c, max(deepest, pos)
				break
			}
		}
		if s < 0 {
			spills++
			if s, err = spill(loads, p.ServerCaps, opt); err != nil {
				return nil, deepest, spills, fmt.Errorf("%w (zone %d, RT %.3f Mbps)", err, z, zoneRT[z])
			}
		}
		target[z] = s
		loads[s] += zoneRT[z]
	}
	return target, deepest, spills, nil
}

// grezProblem draws an m-server instance of 4m+8 zones whose servers hold
// `fill` times their even share of the total zone load, give or take half.
func grezProblem(rng *xrand.RNG, m int, fill float64) *Problem {
	n := 4*m + 8
	k := 8 * n
	p := &Problem{
		ServerCaps:  make([]float64, m),
		ClientZones: make([]int, k),
		NumZones:    n,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           200,
	}
	for i := range p.SS {
		p.SS[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for l := i + 1; l < m; l++ {
			d := rng.Uniform(0, 120)
			p.SS[i][l], p.SS[l][i] = d, d
		}
	}
	total := 0.0
	for j := 0; j < k; j++ {
		p.ClientZones[j] = rng.IntN(n)
		p.ClientRT[j] = rng.Uniform(0.05, 0.5)
		total += p.ClientRT[j]
		p.CS[j] = make([]float64, m)
		for i := range p.CS[j] {
			p.CS[j][i] = math.Floor(rng.Uniform(0, 400))
		}
	}
	for i := range p.ServerCaps {
		p.ServerCaps[i] = fill * total / float64(m) * rng.Uniform(0.5, 1.5)
	}
	return p
}

// TestGreZMatchesFullSortReference pins the two-candidate GreZ to the
// sorted-list reference: identical zone vectors (or the identical error)
// over every delay storage, with and without a cordon mask and a sticky
// bonus (tying and not), under both overflow policies, from loose to starved capacity — and
// the starved rows must really walk past the second choice and spill.
func TestGreZMatchesFullSortReference(t *testing.T) {
	capacities := []struct {
		name string
		fill float64
	}{{"loose", 1000}, {"tight", 1.25}, {"starved", 0.6}}
	storages := []struct {
		name  string
		build func(*Problem) *Problem
	}{
		{"CS", func(p *Problem) *Problem { return p }},
		{ProviderSharedRow, func(p *Problem) *Problem { return providerProblem(p, ProviderSharedRow) }},
		{"coord-sparse", sparseCoordProblem},
	}
	for _, m := range []int{1, 2, 3, 65} {
		for _, c := range capacities {
			for _, st := range storages {
				// GreZ only reads its problem: one draw per trial serves
				// every mask, bonus and policy below.
				var probs [2]*Problem
				for trial := range probs {
					probs[trial] = st.build(grezProblem(xrand.New(uint64(9300+10*m+trial)), m, c.fill))
				}
				for _, masked := range []bool{false, true} {
					// CI is integral: half a client shifts every incumbent
					// without tying it, a whole one ties it with the servers
					// one client better.
					for _, bonus := range []float64{0, 0.5, 1} {
						for _, overflow := range []OverflowPolicy{ErrorOnOverflow, SpillLargestResidual} {
							name := fmt.Sprintf("m=%d/%s/%s/masked=%v/bonus=%v/overflow=%d", m, c.name, st.name, masked, bonus, overflow)
							t.Run(name, func(t *testing.T) {
								w := NewWorkspace()
								deepestSeen, spillsSeen := 0, 0
								for trial, p := range probs {
									rng := xrand.New(uint64(77 + trial))
									opt := Options{Scratch: w, Overflow: overflow}
									if masked {
										opt.Cordoned = make([]bool, m)
										for i := 1; i < m; i += 3 {
											opt.Cordoned[i] = true
										}
									}
									grez, bias := IAPFunc(GreZ), (func(server, zone int) float64)(nil)
									if bonus > 0 {
										incumbent := make([]int, p.NumZones)
										for z := range incumbent {
											incumbent[z] = rng.IntN(m)
										}
										grez = StickyGreZ(incumbent, bonus)
										bias = func(server, zone int) float64 {
											if incumbent[zone] == server {
												return bonus
											}
											return 0
										}
									}
									want, deepest, spills, wantErr := referenceGreZ(p, opt, bias)
									got, err := grez(nil, p, opt)
									if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
										t.Fatalf("trial %d: GreZ error %v, reference %v", trial, err, wantErr)
									}
									if err != nil && !errors.Is(err, ErrInfeasible) {
										t.Fatalf("trial %d: error %v does not wrap ErrInfeasible", trial, err)
									}
									if !slices.Equal(got, want) {
										t.Fatalf("trial %d: GreZ hosts zones on %v, reference on %v", trial, got, want)
									}
									if c.name == "loose" && (spills > 0 || err != nil) {
										t.Fatalf("trial %d: loose capacity spilled %d zones (error %v)", trial, spills, err)
									}
									deepestSeen, spillsSeen = max(deepestSeen, deepest), spillsSeen+spills
								}
								if c.name == "starved" && spillsSeen == 0 {
									t.Fatal("starved capacity never spilled: the no-acceptor path is untested")
								}
								// A run that spills to the end visits every zone, and 65
								// servers leave no doubt some zone has a third taker.
								if c.name == "starved" && m > 3 && overflow == SpillLargestResidual && deepestSeen < 2 {
									t.Fatalf("starved capacity never reached a third choice (deepest %d): the on-demand pick is untested", deepestSeen)
								}
							})
						}
					}
				}
			}
		}
	}
}

// TestOnDemandChoiceEqualsSortedWalk holds the placement step to the walk
// it replaces, on µ rows with ties and arbitrary accept masks: topTwo is the
// sorted order's first two entries, kept the first of them that accepts,
// third the first acceptor of the whole order.
func TestOnDemandChoiceEqualsSortedWalk(t *testing.T) {
	rng := xrand.New(424242)
	for trial := 0; trial < 5000; trial++ {
		m := 1 + rng.IntN(70)
		mu := make([]float64, m)
		pm := placement{loads: make([]float64, m), caps: make([]float64, m)}
		if rng.IntN(2) == 0 {
			pm.opt.Cordoned = make([]bool, m)
		}
		levels := 1 + rng.IntN(6) // few distinct µ values: many exact ties
		for i := range mu {
			mu[i] = -float64(rng.IntN(levels)) / 2
			pm.loads[i], pm.caps[i] = rng.Uniform(0, 2), 1.5
			if pm.opt.Cordoned != nil {
				pm.opt.Cordoned[i] = rng.IntN(4) == 0
			}
		}
		const need = 0.5
		free := rng.IntN(m+1) - 1 // -1: no free server
		order := make([]int, m)
		preferenceOrder(mu, order)
		walk := func(servers []int) int {
			for _, s := range servers {
				if s == free || pm.accepts(s, need) {
					return s
				}
			}
			return -1
		}

		c := topTwo(trial, mu)
		if c.item != trial || int(c.best) != order[0] || (m >= 2 && int(c.second) != order[1]) || (m == 1 && c.second != -1) {
			t.Fatalf("trial %d: topTwo = (%d, %d), sorted order starts %v", trial, c.best, c.second, order[:min(m, 2)])
		}
		if want := mu[order[0]] - mu[order[min(m, 2)-1]]; c.regret != want {
			t.Fatalf("trial %d: regret %v, want %v", trial, c.regret, want)
		}
		if got, want := pm.kept(c, need, free), walk(order[:min(m, 2)]); got != want {
			t.Fatalf("trial %d: kept = %d, the walk over the first two stops at %d", trial, got, want)
		}
		if got, want := pm.third(mu, need, free), walk(order); got != want {
			t.Fatalf("trial %d: third = %d, the sorted walk stops at %d (µ %v, free %d)", trial, got, want, mu, free)
		}
	}
}
