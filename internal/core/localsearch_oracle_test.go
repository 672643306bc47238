package core

// This file retains the original clone-and-rescore local search as an
// unexported oracle. It evaluates every candidate move by deep-copying the
// assignment and re-scoring all clients — O(zones × servers × clients) per
// zone-move scan — which is exactly what the Evaluator-based implementation
// replaces. It exists so the equivalence tests and benchmarks can prove the
// incremental search accepts the same move sequence at a fraction of the
// cost. Do not use it outside tests.

// localSearchOracle is the reference implementation of LocalSearch.
func localSearchOracle(p *Problem, a *Assignment, maxRounds int) *Assignment {
	cur := a.Clone()
	for round := 0; round < maxRounds; round++ {
		improvedZone := tryBestZoneMoveOracle(p, cur)
		improvedContact := tryBestContactSwitchOracle(p, cur)
		if !improvedZone && !improvedContact {
			break
		}
	}
	return cur
}

// evaluateScoreOracle scores an assignment from scratch.
func evaluateScoreOracle(p *Problem, a *Assignment) score {
	var s score
	for j := range p.ClientZones {
		d := a.ClientDelay(p, j)
		if d <= p.D {
			s.withQoS++
		} else {
			s.rapCost += d - p.D
		}
	}
	for _, l := range a.ServerLoads(p) {
		s.load += l
	}
	return s
}

// tryBestZoneMoveOracle applies the single best improving zone move, if
// any, cloning and re-scoring the full assignment per candidate.
func tryBestZoneMoveOracle(p *Problem, a *Assignment) bool {
	m := p.NumServers()
	zoneRT := p.ZoneRT()
	loads := a.ServerLoads(p)
	base := evaluateScoreOracle(p, a)

	bestScore := base
	bestZone, bestServer := -1, -1
	for z := 0; z < p.NumZones; z++ {
		old := a.ZoneServer[z]
		for s := 0; s < m; s++ {
			if s == old {
				continue
			}
			// Feasibility on the destination: it gains the zone's target
			// load (forwarding loads of followed clients stay zero because
			// they land on the new target itself).
			if !almostLE(loads[s]+zoneRT[z], p.ServerCaps[s]) {
				continue
			}
			cand := applyZoneMoveOracle(p, a, z, s)
			cs := evaluateScoreOracle(p, cand)
			if cs.betterThan(bestScore) {
				bestScore, bestZone, bestServer = cs, z, s
			}
		}
	}
	if bestZone < 0 {
		return false
	}
	*a = *applyZoneMoveOracle(p, a, bestZone, bestServer)
	return true
}

// applyZoneMoveOracle returns a copy of a with zone z rehosted on server s;
// clients of z whose contact was the old target follow to s.
func applyZoneMoveOracle(p *Problem, a *Assignment, z, s int) *Assignment {
	out := a.Clone()
	old := out.ZoneServer[z]
	out.ZoneServer[z] = s
	for j, cz := range p.ClientZones {
		if cz == z && out.ClientContact[j] == old {
			out.ClientContact[j] = s
		}
	}
	return out
}

// tryBestContactSwitchOracle applies the single best improving contact
// switch per out-of-bound client, in client order.
func tryBestContactSwitchOracle(p *Problem, a *Assignment) bool {
	m := p.NumServers()
	loads := a.ServerLoads(p)
	improved := false
	for j := range p.ClientZones {
		t := a.Target(p, j)
		cur := a.ClientContact[j]
		curDelay := a.ClientDelay(p, j)
		bestServer := -1
		bestDelay := curDelay
		for s := 0; s < m; s++ {
			if s == cur {
				continue
			}
			var d float64
			if s == t {
				d = p.CSAt(j, t)
			} else {
				if !almostLE(loads[s]+2*p.ClientRT[j], p.ServerCaps[s]) {
					continue
				}
				d = p.CSAt(j, s) + p.SS[s][t]
			}
			if d < bestDelay-1e-12 {
				bestDelay, bestServer = d, s
			}
		}
		// Only accept switches that matter for the objective: gaining QoS,
		// or shrinking the excess of an out-of-bound client. Shaving delay
		// that is already within the bound changes nothing the CAP counts.
		if bestServer >= 0 && (curDelay > p.D) {
			if cur != t {
				loads[cur] -= 2 * p.ClientRT[j]
			}
			if bestServer != t {
				loads[bestServer] += 2 * p.ClientRT[j]
			}
			a.ClientContact[j] = bestServer
			improved = true
		}
	}
	return improved
}
