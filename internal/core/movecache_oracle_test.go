package core

// The cache-free reference for zone-move scoring. Every shipped fold —
// bestZoneMove, ImproveZone, BestZoneHost — reads the maintained
// candidate-delta rows; the direct per-(zone, server) sums below exist only
// here, as the oracle the equivalence tests compare those rows and folds
// against (a shipped method under these names would not compile beside
// them).

// zoneMoveDelta computes the objective delta of rehosting zone z on server
// s as pure sums over the zone's clients, reading only zone-local state —
// never the global score and never server loads. This purity is what makes
// the delta cacheable: it stays exact until a mutation touches the zone.
func (ev *Evaluator) zoneMoveDelta(z, s int) (dQoS int32, dRap, dLoad, dTraffic float64) {
	p := ev.p
	old := ev.zoneServer[z]
	if s == old {
		return 0, 0, 0, 0
	}
	if ev.trafficOn {
		dTraffic = ev.trafficMoveDelta(z, old, s)
	}
	for _, j := range ev.zoneMembers[z] {
		c := ev.contact[j]
		var nd float64
		if c == old || c == s {
			// Followers land on the new target; a contact that *is* the new
			// target stops forwarding. Either way the delay is direct.
			nd = p.CSAt(j, s)
			if c == s {
				dLoad -= 2 * p.ClientRT[j]
			}
		} else {
			nd = p.CSAt(j, c) + p.SS[c][s]
		}
		od := ev.delay[j]
		if od <= p.D {
			dQoS--
		} else {
			dRap -= od - p.D
		}
		if nd <= p.D {
			dQoS++
		} else {
			dRap += nd - p.D
		}
	}
	return dQoS, dRap, dLoad, dTraffic
}

// zoneMoveScore returns the objective the solution would have after
// rehosting zone z on server s (clients whose contact was the old target
// follow to s), in O(clients of z) and without mutating anything. It is
// the current score plus the pure delta of zoneMoveDelta — the same
// arithmetic every search path uses.
func (ev *Evaluator) zoneMoveScore(z, s int) score {
	return ev.score().plus(ev.zoneMoveDelta(z, s))
}

// trafficMoveDelta returns the weighted traffic delta of rehosting zone z
// from old to s: λ × (weight-to-old-host − weight-to-destination). Pure
// zone-local arithmetic, bit-identical to the cached row entry
// refreshTrafficRow produces for the same state.
func (ev *Evaluator) trafficMoveDelta(z, old, s int) float64 {
	nbr, wt := ev.p.Adjacency.Row(z)
	var toOld, toDst float64
	for i, y := range nbr {
		switch ev.zoneServer[y] {
		case old:
			toOld += wt[i]
		case s:
			toDst += wt[i]
		}
	}
	return ev.p.TrafficWeight * (toOld - toDst)
}

// bestZoneMoveRescan is the retained cache-free reference: the full
// (zone × server) rescan the cache replaces, kept for the equivalence
// tests and the BenchmarkParallelLocalSearch baseline. Identical candidate
// arithmetic (score().plus of the pure delta), identical fold order.
func (ev *Evaluator) bestZoneMoveRescan() bool {
	p := ev.p
	m := p.NumServers()
	base := ev.score()
	bestScore := base
	bestZone, bestServer := -1, -1
	for z := 0; z < p.NumZones; z++ {
		old := ev.zoneServer[z]
		rt := ev.zoneRT[z]
		for s := 0; s < m; s++ {
			if s == old || ev.cordoned[s] {
				continue
			}
			if !almostLE(ev.loads[s]+rt, p.ServerCaps[s]) {
				continue
			}
			cs := base.plus(ev.zoneMoveDelta(z, s))
			if cs.betterThan(bestScore) {
				bestScore, bestZone, bestServer = cs, z, s
			}
		}
	}
	if bestZone < 0 {
		return false
	}
	ev.ApplyZoneMove(bestZone, bestServer)
	return true
}

// localSearchRescan is LocalSearch on the cache-free reference scan — the
// pre-cache implementation, retained as the sequential oracle.
func (ev *Evaluator) localSearchRescan(maxRounds int) bool {
	any := false
	for round := 0; round < maxRounds; round++ {
		improvedZone := ev.bestZoneMoveRescan()
		improvedContact := ev.contactSwitchPass()
		if !improvedZone && !improvedContact {
			break
		}
		any = true
	}
	return any
}
