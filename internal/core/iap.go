package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"dvecap/internal/xrand"
)

// OverflowPolicy controls what an assignment algorithm does when no server
// has enough residual capacity for the item being placed. The paper assumes
// feasible instances; real deployments need a defined behaviour.
type OverflowPolicy int

const (
	// ErrorOnOverflow aborts the assignment with ErrInfeasible.
	ErrorOnOverflow OverflowPolicy = iota
	// SpillLargestResidual places the item on the server with the largest
	// residual capacity, accepting a capacity violation. Evaluate reports
	// such violations through Metrics.MaxLoadRatio > 1.
	SpillLargestResidual
)

// ErrInfeasible is returned when no server can host an item under
// ErrorOnOverflow.
var ErrInfeasible = errors.New("core: no server with sufficient residual capacity")

// Options tunes assignment algorithms.
type Options struct {
	Overflow OverflowPolicy
	// Scratch, when non-nil, provides reusable buffers for the algorithms'
	// internal state (cost matrices, candidate pairs, load accumulators),
	// making repeated Solve calls allocation-free apart from the returned
	// assignment. Callers that solve in a loop — replications, churn
	// re-optimisation — should pass one Workspace per goroutine.
	Scratch *Workspace
	// Workers sets the goroutine count for the parallelisable scans: the
	// evaluator's sharded zone-move search (LocalSearchOpt, and the repair
	// planner's evaluator) and the greedy zone phase's O(clients × servers)
	// cost-matrix build. 0 and 1 run sequentially, n > 1 shards across n
	// goroutines, negative uses runtime.GOMAXPROCS(0). Results are
	// bit-identical for every setting — parallelism changes scheduling,
	// never outcomes (DESIGN.md §8).
	Workers int
	// Cordoned, when non-nil, marks servers excluded as placement
	// destinations (Cordoned[i] true = server i takes no zones and no
	// forwarding contacts, not even as spill) — how a full re-solve
	// honours an in-flight drain (DESIGN.md §10). The mask must cover
	// every server and leave at least one server available. nil means no
	// server is cordoned.
	Cordoned []bool
	// Late, when non-nil, is the caller's late index (lateindex.go): a solve
	// of the problem it was filled from builds the cost matrix and GreC's
	// late list from its bits instead of reading delays, any other solve
	// fills it while counting from rows. For owners of a long-lived problem
	// whose delays only change through hooks that keep the index current:
	// the repair planner, and the dvecap Cluster between builder mutations.
	// A solve of a throwaway problem (noisy estimates, a traffic overlay)
	// leaves it nil. Outputs are identical either way.
	Late *LateIndex
}

// cordoned reports whether server i is excluded by the options' mask.
func (o Options) cordoned(i int) bool {
	return o.Cordoned != nil && o.Cordoned[i]
}

// scratch returns the options' workspace, or a fresh one when unset.
func (o Options) scratch() *Workspace {
	if o.Scratch != nil {
		return o.Scratch
	}
	return &Workspace{}
}

// workerCount resolves the Workers field: ≥ 1, with negative meaning one
// goroutine per available CPU.
func (o Options) workerCount() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// IAPFunc assigns zones to servers (the initial assignment phase),
// returning the target server of each zone.
type IAPFunc func(rng *xrand.RNG, p *Problem, opt Options) ([]int, error)

// RanZ is the paper's random initial assignment: repeatedly take the
// unassigned zone with the most clients and place it on a random server
// with sufficient capacity. Delay-oblivious by design — it is the paper's
// baseline showing the value of delay-aware initial assignment.
func RanZ(rng *xrand.RNG, p *Problem, opt Options) ([]int, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: RanZ requires an RNG")
	}
	n := p.NumZones
	w := opt.scratch()
	zoneRT := w.zoneRTs(p)
	w.zoneSize = grow(w.zoneSize, n)
	zoneSize := w.zoneSize
	for i := range zoneSize {
		zoneSize[i] = 0
	}
	for _, z := range p.ClientZones {
		zoneSize[z]++
	}
	w.order = zonesBySizeDescInto(zoneSize, w.order)
	order := w.order
	loads := w.zeroLoads(p.NumServers())
	target := make([]int, n)
	w.candidates = grow(w.candidates, p.NumServers())[:0]
	candidates := w.candidates
	for _, z := range order {
		candidates = candidates[:0]
		for i, c := range p.ServerCaps {
			if !opt.cordoned(i) && almostLE(loads[i]+zoneRT[z], c) {
				candidates = append(candidates, i)
			}
		}
		var s int
		if len(candidates) > 0 {
			s = candidates[rng.IntN(len(candidates))]
		} else {
			var err error
			if s, err = spill(loads, p.ServerCaps, opt); err != nil {
				return nil, fmt.Errorf("%w (zone %d, RT %.3f Mbps)", err, z, zoneRT[z])
			}
		}
		target[z] = s
		loads[s] += zoneRT[z]
	}
	return target, nil
}

// GreZ is the paper's greedy initial assignment (Fig. 2): a regret-based
// heuristic in the style of Romeijn–Morales GAP greedies. For every zone it
// scores each server by desirability µ = -CI (minus the count of that
// zone's clients that would miss the delay bound), processes zones in
// descending order of the gap between their best and second-best server,
// and places each zone on the most desirable server that still has
// capacity.
//
// Per the paper's pseudocode desirabilities and regrets are computed once,
// up front (static regret). See GreZDynamic for the recomputing variant
// used in ablations.
func GreZ(rng *xrand.RNG, p *Problem, opt Options) ([]int, error) {
	return greZBiased(rng, p, opt, nil)
}

// StickyGreZ returns a GreZ variant biased toward an incumbent zone
// assignment: each zone's incumbent server gets a desirability bonus, so
// zones only migrate when another server is strictly better by more than
// the bonus. CI costs are integral, so any bonus in (0,1) breaks ties
// toward stability without ever overriding a real one-client improvement;
// larger bonuses trade QoS for fewer handoffs. An extension for systems
// where zone migration is expensive (see the sim package's handoff model).
func StickyGreZ(incumbent []int, bonus float64) IAPFunc {
	return func(rng *xrand.RNG, p *Problem, opt Options) ([]int, error) {
		if len(incumbent) != p.NumZones {
			return nil, fmt.Errorf("core: sticky incumbent covers %d zones, problem has %d",
				len(incumbent), p.NumZones)
		}
		return greZBiased(rng, p, opt, func(server, zone int) float64 {
			if incumbent[zone] == server {
				return bonus
			}
			return 0
		})
	}
}

// greZBiased is GreZ with an optional desirability bias term. It has GreC's
// shape: each zone keeps its two most desirable servers (topTwo), zones are
// placed in descending-regret order, and a zone both candidates refuse
// recomputes its µ row and takes the most desirable server that still
// accepts it (placement.third) — the server a walk down the zone's sorted
// list would stop at, found without sorting.
func greZBiased(_ *xrand.RNG, p *Problem, opt Options, bias func(server, zone int) float64) ([]int, error) {
	w := opt.scratch()
	ci := w.initialCostsParallel(p, opt.workerCount(), opt.Late)
	m, n := p.NumServers(), p.NumZones
	zoneRT := w.zoneRTs(p)

	w.mu = grow(w.mu, m)
	mu := w.mu
	// zoneMu fills mu with zone z's desirability of every server.
	zoneMu := func(z int) {
		for i := range mu {
			mu[i] = -float64(ci[i][z])
			if bias != nil {
				mu[i] += bias(i, z)
			}
		}
	}
	w.choices = grow(w.choices, n)
	choices := w.choices
	for z := range choices {
		zoneMu(z)
		choices[z] = topTwo(z, mu)
	}
	sortChoicesByRegret(choices)

	pm := placement{loads: w.zeroLoads(m), caps: p.ServerCaps, opt: opt}
	target := make([]int, n)
	for _, c := range choices {
		z := c.item
		s := pm.kept(c, zoneRT[z], -1)
		if s < 0 {
			zoneMu(z)
			if s = pm.third(mu, zoneRT[z], -1); s < 0 {
				var err error
				if s, err = spill(pm.loads, pm.caps, opt); err != nil {
					return nil, fmt.Errorf("%w (zone %d, RT %.3f Mbps)", err, z, zoneRT[z])
				}
			}
		}
		target[z] = s
		pm.loads[s] += zoneRT[z]
	}
	return target, nil
}

// GreZDynamic is the recomputing variant of GreZ: after every placement it
// rebuilds each unassigned zone's desirability over the servers that can
// still take it, as the classic GAP greedy does. Quadratically more work,
// occasionally better packings; quantified by the ablation benchmark.
func GreZDynamic(_ *xrand.RNG, p *Problem, opt Options) ([]int, error) {
	w := opt.scratch()
	ci := w.initialCostsParallel(p, opt.workerCount(), opt.Late)
	m, n := p.NumServers(), p.NumZones
	zoneRT := w.zoneRTs(p)
	loads := w.zeroLoads(m)
	target := make([]int, n)
	w.unassigned = grow(w.unassigned, n)
	unassigned := w.unassigned
	for i := range target {
		target[i] = -1
		unassigned[i] = true
	}
	for remaining := n; remaining > 0; remaining-- {
		// Pick the unassigned zone with maximum regret over *feasible*
		// servers; fall back to spill policy when a zone has none.
		bestZone, bestServer := -1, -1
		bestRegret := 0.0
		for z := 0; z < n; z++ {
			if !unassigned[z] {
				continue
			}
			// Find best and second-best feasible µ for this zone. Ties on µ
			// keep the lowest-index server (deterministic); the tolerance
			// helper guards against float drift in biased µ values.
			best, second, bestSrv := negInf, negInf, -1
			for i := 0; i < m; i++ {
				if opt.cordoned(i) || !almostLE(loads[i]+zoneRT[z], p.ServerCaps[i]) {
					continue
				}
				v := -float64(ci[i][z])
				if bestSrv == -1 || (v > best && !almostEq(v, best)) {
					second = best
					best, bestSrv = v, i
				} else if v > second {
					second = v
				}
			}
			if bestSrv == -1 {
				continue // no feasible server; handled after the scan
			}
			regret := 0.0
			if second != negInf {
				regret = best - second
			}
			// Strictly-greater regret wins; near-equal regrets keep the
			// lowest zone index (zones are scanned in ascending order).
			if bestZone == -1 || (regret > bestRegret && !almostEq(regret, bestRegret)) {
				bestZone, bestServer, bestRegret = z, bestSrv, regret
			}
		}
		if bestZone == -1 {
			// Every remaining zone is infeasible: spill them in index order.
			for z := 0; z < n; z++ {
				if !unassigned[z] {
					continue
				}
				s, err := spill(loads, p.ServerCaps, opt)
				if err != nil {
					return nil, fmt.Errorf("%w (zone %d, RT %.3f Mbps)", err, z, zoneRT[z])
				}
				target[z] = s
				loads[s] += zoneRT[z]
				unassigned[z] = false
			}
			return target, nil
		}
		target[bestZone] = bestServer
		loads[bestServer] += zoneRT[bestZone]
		unassigned[bestZone] = false
	}
	return target, nil
}

const negInf = -1e308

// zonesBySizeDesc returns zone indexes sorted by client count descending,
// ties by zone index ascending (deterministic).
func zonesBySizeDesc(size []int) []int {
	return zonesBySizeDescInto(size, nil)
}

// zonesBySizeDescInto is zonesBySizeDesc writing into buf when it has
// capacity. The (count desc, index asc) order is total, so the unstable
// sort is deterministic.
func zonesBySizeDescInto(size []int, buf []int) []int {
	order := grow(buf, len(size))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if size[a] != size[b] {
			return size[b] - size[a]
		}
		return a - b
	})
	return order
}

// spill resolves a placement with no feasible server according to policy.
// Cordoned servers are never spill targets (a drained server takes nothing
// new); the mask always leaves at least one server available.
func spill(loads, caps []float64, opt Options) (int, error) {
	if opt.Overflow == ErrorOnOverflow {
		return 0, ErrInfeasible
	}
	best, bestResidual := -1, 0.0
	for i := 0; i < len(caps); i++ {
		if opt.cordoned(i) {
			continue
		}
		if r := caps[i] - loads[i]; best < 0 || r > bestResidual {
			best, bestResidual = i, r
		}
	}
	if best < 0 {
		return 0, ErrInfeasible
	}
	return best, nil
}
