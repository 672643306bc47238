package core

// Dynamic churn mutations for the Evaluator: the primitives the repair
// subsystem (internal/repair) composes into O(affected) per-event
// re-optimisation. Every method here keeps all derived state — per-client
// delays, per-server loads, zone bandwidth totals, the QoS count, the RAP
// cost and the total load — exactly consistent with the bound problem and
// assignment, in O(1) plus the cost of copying a delay row where one is
// supplied. The client verbs also keep their zones' candidate-delta rows
// clean (movecache.go): the one client's contribution is retracted and/or
// added in O(servers), so the ImproveZone that follows an event folds a
// maintained row instead of re-deriving it from every client of the zone.
//
// Unlike the scoring methods, these mutate the bound *Problem* (client
// rows are appended, swap-removed and rewritten in place), so they must
// only be used when the evaluator exclusively owns its problem — the
// repair.Planner guarantees this by cloning the problem it is built from.

// NumClients returns the current client count of the bound problem.
func (ev *Evaluator) NumClients() int { return len(ev.contact) }

// Contact returns client j's current contact server.
func (ev *Evaluator) Contact(j int) int { return ev.contact[j] }

// ZoneHost returns the server currently hosting zone z.
func (ev *Evaluator) ZoneHost(z int) int { return ev.zoneServer[z] }

// ZoneClients returns the client IDs of zone z, in arbitrary order. The
// slice is the evaluator's own index — callers must not mutate or retain
// it across mutations.
func (ev *Evaluator) ZoneClients(z int) []int { return ev.zoneMembers[z] }

// PQoS returns the fraction of clients within the delay bound (1 for an
// empty population).
func (ev *Evaluator) PQoS() float64 {
	k := len(ev.contact)
	if k == 0 {
		return 1
	}
	return float64(ev.withQoS) / float64(k)
}

// AddClient appends a client in the given zone with bandwidth requirement
// rt and client-server delay row cs (copied; must have NumServers entries)
// to the bound problem, attaching it directly to its zone's current host.
// It returns the new client's index, which stays valid until a RemoveClient
// compacts over it.
func (ev *Evaluator) AddClient(zone int, rt float64, cs []float64) int {
	p := ev.p
	j := len(p.ClientZones)
	p.ClientZones = append(p.ClientZones, zone)
	p.ClientRT = append(p.ClientRT, rt)
	p.AppendCSRow(cs)
	if li := ev.lateIndex(); li != nil {
		// Read back, so unmeasured entries get the bit of the value the
		// store resolved them to.
		li.appendClient(ev.csRow(j), p.D)
	}

	t := ev.zoneServer[zone]
	ev.contact = append(ev.contact, t)
	d := p.CSAt(j, t)
	ev.delay = append(ev.delay, d)
	ev.posInZone = append(ev.posInZone, len(ev.zoneMembers[zone]))
	ev.zoneMembers[zone] = append(ev.zoneMembers[zone], j)
	ev.zoneRT[zone] += rt
	ev.loads[t] += rt
	ev.totalLoad += rt
	if d <= p.D {
		ev.withQoS++
	} else {
		ev.rapCost += d - p.D
	}
	ev.adjustRowForClient(j, 1, ev.standingOf(j))
	return j
}

// RemoveClient deletes client j, compacting by moving the last client into
// slot j (swap-remove). It returns the index the last client previously
// held, or -1 when j itself was last — callers tracking stable handles use
// this to update their index maps.
func (ev *Evaluator) RemoveClient(j int) int {
	p := ev.p
	l := len(p.ClientZones) - 1

	// Subtract j's contributions.
	ev.adjustRowForClient(j, -1, ev.standingOf(j))
	z := p.ClientZones[j]
	t := ev.zoneServer[z]
	rt := p.ClientRT[j]
	ev.loads[t] -= rt
	ev.totalLoad -= rt
	if c := ev.contact[j]; c != t {
		ev.loads[c] -= 2 * rt
		ev.totalLoad -= 2 * rt
	}
	if d := ev.delay[j]; d <= p.D {
		ev.withQoS--
	} else {
		ev.rapCost -= d - p.D
	}
	ev.zoneRT[z] -= rt
	ev.dropFromZone(j, z)

	moved := -1
	if j != l {
		// Relocate the last client into slot j, everywhere.
		p.ClientZones[j] = p.ClientZones[l]
		p.ClientRT[j] = p.ClientRT[l]
		ev.contact[j] = ev.contact[l]
		ev.delay[j] = ev.delay[l]
		pos := ev.posInZone[l]
		ev.zoneMembers[p.ClientZones[j]][pos] = j
		ev.posInZone[j] = pos
		moved = l
	}
	p.ClientZones = p.ClientZones[:l]
	p.ClientRT = p.ClientRT[:l]
	p.SwapRemoveCSRow(j)
	if li := ev.lateIndex(); li != nil {
		li.swapRemoveClient(j)
	}
	ev.contact = ev.contact[:l]
	ev.delay = ev.delay[:l]
	ev.posInZone = ev.posInZone[:l]
	return moved
}

// dropFromZone removes client j from zone z's membership bucket.
func (ev *Evaluator) dropFromZone(j, z int) {
	bucket := ev.zoneMembers[z]
	pos := ev.posInZone[j]
	last := len(bucket) - 1
	bucket[pos] = bucket[last]
	ev.posInZone[bucket[pos]] = pos
	ev.zoneMembers[z] = bucket[:last]
}

// MoveClient migrates client j's avatar to newZone: its target load follows
// the zone, its contact server is kept (forwarding re-derived against the
// new target), and its delay and QoS standing are recomputed. Callers
// typically follow with GreedyContact to re-place the contact.
func (ev *Evaluator) MoveClient(j, newZone int) {
	p := ev.p
	old := p.ClientZones[j]
	if newZone == old {
		return
	}
	rt := p.ClientRT[j]
	oldT := ev.zoneServer[old]
	newT := ev.zoneServer[newZone]
	c := ev.contact[j]

	ev.adjustRowForClient(j, -1, ev.standingOf(j))
	ev.dropFromZone(j, old)
	ev.posInZone[j] = len(ev.zoneMembers[newZone])
	ev.zoneMembers[newZone] = append(ev.zoneMembers[newZone], j)
	p.ClientZones[j] = newZone
	ev.zoneRT[old] -= rt
	ev.zoneRT[newZone] += rt
	ev.loads[oldT] -= rt
	ev.loads[newT] += rt

	// Forwarding load: consumed on c only while c is not the target.
	if c != oldT {
		ev.loads[c] -= 2 * rt
		ev.totalLoad -= 2 * rt
	}
	if c != newT {
		ev.loads[c] += 2 * rt
		ev.totalLoad += 2 * rt
	}
	var nd float64
	if c == newT {
		nd = p.CSAt(j, c)
	} else {
		nd = p.CSAt(j, c) + p.SS[c][newT]
	}
	ev.replaceDelay(j, nd)
	ev.adjustRowForClient(j, 1, ev.standingOf(j))
}

// SetClientDelays replaces client j's client-server delay row (copied) and
// recomputes its effective delay — the DelayUpdate event of a measurement
// refresh. Loads are unaffected.
func (ev *Evaluator) SetClientDelays(j int, cs []float64) {
	p := ev.p
	ev.adjustRowForClient(j, -1, ev.standingOf(j))
	p.SetCSRow(j, cs)
	if li := ev.lateIndex(); li != nil {
		li.setRow(j, ev.csRow(j), p.D)
	}
	t := ev.zoneServer[p.ClientZones[j]]
	c := ev.contact[j]
	var nd float64
	if c == t {
		nd = p.CSAt(j, t)
	} else {
		nd = p.CSAt(j, c) + p.SS[c][t]
	}
	ev.replaceDelay(j, nd)
	ev.adjustRowForClient(j, 1, ev.standingOf(j))
}

// SetClientRT changes client j's bandwidth requirement, shifting the
// derived zone totals and server loads by the delta. Delay and QoS standing
// are unaffected, and of the zone's cached row only the load entry of a
// forwarding contact moves.
func (ev *Evaluator) SetClientRT(j int, rt float64) {
	p := ev.p
	delta := rt - p.ClientRT[j]
	if delta == 0 {
		return
	}
	p.ClientRT[j] = rt
	z := p.ClientZones[j]
	t := ev.zoneServer[z]
	ev.zoneRT[z] += delta
	ev.loads[t] += delta
	ev.totalLoad += delta
	if c := ev.contact[j]; c != t {
		ev.loads[c] += 2 * delta
		ev.totalLoad += 2 * delta
		ev.shiftRowLoad(z, c, -2*delta)
	}
}

// replaceDelay swaps client j's effective delay for nd, maintaining the
// QoS count and RAP cost.
func (ev *Evaluator) replaceDelay(j int, nd float64) {
	if od := ev.delay[j]; od <= ev.p.D {
		ev.withQoS--
	} else {
		ev.rapCost -= od - ev.p.D
	}
	if nd <= ev.p.D {
		ev.withQoS++
	} else {
		ev.rapCost += nd - ev.p.D
	}
	ev.delay[j] = nd
}

// GreedyContact re-places client j's contact with one step of GreC's logic
// against current loads: directly on the target when within the bound,
// otherwise through the feasible contact minimising effective delay (ties
// to the target). It reports whether the contact changed. O(servers).
func (ev *Evaluator) GreedyContact(j int) bool {
	p := ev.p
	t := ev.zoneServer[p.ClientZones[j]]
	cur := ev.contact[j]
	row := ev.csRow(j)
	best, bestDelay := t, row[t]
	if bestDelay > p.D {
		rt2 := 2 * p.ClientRT[j]
		for s := 0; s < p.NumServers(); s++ {
			if s == t {
				continue
			}
			if ev.cordoned[s] {
				continue
			}
			// Switching to s adds 2×RT of forwarding unless j already
			// forwards through s.
			add := rt2
			if s == cur && cur != t {
				add = 0
			}
			if !almostLE(ev.loads[s]+add, p.ServerCaps[s]) {
				continue
			}
			if d := row[s] + p.SS[s][t]; d < bestDelay-1e-12 {
				best, bestDelay = s, d
			}
		}
	}
	if best == cur {
		return false
	}
	ev.ApplyContactSwitch(j, best)
	return true
}

// ImproveZone applies the single best rehosting of zone z that improves
// the QoS count or the RAP cost, if one exists, and reports whether a move
// was applied — the seeded, localized form of bestZoneMove the repair path
// uses. Unlike the full local search it does not take load-only
// improvements: a zone handoff is disruptive, so repair moves a zone only
// when clients' quality is at stake.
//
// One path: bring the zone's candidate-delta row up to date, then fold it
// in O(servers). Client churn keeps rows clean and a handoff rebases its row,
// so the usual event pays the fold alone; the O(servers × clients of z)
// rebuild happens on the first touch after an open, a recovery or a
// checkpoint and every maxRowAdjustments adjustments (movecache.go).
func (ev *Evaluator) ImproveZone(z int) bool {
	if !ev.foldReady(z) {
		return false
	}
	best, _ := ev.bestInRow(z, ev.score(), foldQuality)
	if best < 0 {
		return false
	}
	ev.ApplyZoneMove(z, best)
	return true
}
