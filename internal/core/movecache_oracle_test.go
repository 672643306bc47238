package core

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
