package core

// Evaluator maintains a CAP solution together with every derived quantity
// the local search scores moves by — per-client effective delays, per-server
// loads, the QoS count, the RAP cost and the total load — and updates them
// incrementally as the solution changes. A zone move is scored and applied
// in O(clients of the zone); a contact switch in O(1). This replaces the
// clone-and-rescore evaluation (retained as localSearchOracle) that made
// every candidate move O(zones × servers × clients).
//
// The evaluator keeps its own copy of the assignment; read it back with
// Assignment. Reset rebinds the evaluator to a new problem/assignment pair
// reusing all internal buffers, so replication and churn loops can score
// millions of moves without allocating; Adopt installs a new assignment of
// the bound problem and keeps the cached rows it does not change. An
// Evaluator is not safe for concurrent use.
//
// Beyond move scoring, the evaluator supports churn mutations — AddClient,
// RemoveClient, MoveClient, SetClientDelays, SetClientRT (evaluator_dyn.go)
// — each O(1) in derived-state maintenance, which is what the repair
// subsystem builds on. Those methods mutate the bound Problem and therefore
// require the evaluator to own it exclusively.
type Evaluator struct {
	p *Problem

	zoneServer []int
	contact    []int

	// Mutable zone → client index: zoneMembers[z] lists the client IDs of
	// zone z in arbitrary order, and posInZone[j] is client j's position
	// inside its zone's list, so membership changes are O(1) swap-removes.
	zoneMembers [][]int
	posInZone   []int

	zoneRT []float64
	delay  []float64 // effective delay per client
	loads  []float64 // bandwidth load per server

	// cordoned[i] excludes server i as a placement destination (drain;
	// evaluator_topo.go). Preserved across Reset while the server count
	// matches, cleared when the dimension changes.
	cordoned []bool

	withQoS   int
	rapCost   float64
	totalLoad float64

	// Traffic term (DESIGN.md §15). trafficOn caches p.TrafficOn() at
	// Reset (re-derived when adjacency CRUD flips it); trafficCut is the
	// cross-server cut weight of the adjacency graph and cutEdges its edge
	// count, maintained like rapCost whenever there is a graph — a zone
	// move walks the zone's neighbor row in O(degree), other mutations but
	// edge edits are traffic-neutral. The score uses TrafficWeight × trafficCut.
	trafficOn  bool
	trafficCut float64
	cutEdges   int

	// Candidate-delta cache and scan parallelism (movecache.go). workers
	// ≤ 1 scans sequentially; results are identical for every setting.
	cache   moveCache
	workers int

	// Row materialization scratch, for delay stores with no real row to
	// hand out. rowScratch serves the sequential row-streaming scans (csRow);
	// adjScratch is dedicated to adjustRowForClient, which runs while a
	// caller may still hold a csRow result. Parallel scans allocate
	// per-worker scratch instead (bestZoneMove).
	rowScratch []float64
	adjScratch []float64

	// late, when attached (SetLateIndex), is the owner's late index, kept
	// current by the mutations that write a delay (lateindex.go).
	late *LateIndex

	// Metric handles (telemetry.go); the zero value is fully disabled.
	tele evTele
}

// NewEvaluator returns an evaluator bound to p with a's solution loaded.
func NewEvaluator(p *Problem, a *Assignment) *Evaluator {
	ev := &Evaluator{}
	ev.Reset(p, a)
	return ev
}

// Reset rebinds the evaluator to (p, a), reusing internal buffers, and leaves
// every candidate-delta row cold. It runs in O(clients + zones + servers).
func (ev *Evaluator) Reset(p *Problem, a *Assignment) {
	m, n, k := p.NumServers(), p.NumZones, p.NumClients()
	if ev.late != nil && ev.late.p != p {
		// The index describes another problem, which this evaluator stops
		// maintaining here.
		ev.late.drop()
	}
	ev.p = p

	ev.zoneServer = grow(ev.zoneServer, n)
	copy(ev.zoneServer, a.ZoneServer)
	ev.contact = grow(ev.contact, k)
	copy(ev.contact, a.ClientContact)
	// Per-zone buckets keep their capacity across Resets, so steady-state
	// rebinding allocates nothing.
	if cap(ev.zoneMembers) < n {
		nm := make([][]int, n)
		copy(nm, ev.zoneMembers)
		ev.zoneMembers = nm
	} else {
		ev.zoneMembers = ev.zoneMembers[:n]
	}
	ev.posInZone = grow(ev.posInZone, k)
	ev.zoneRT = grow(ev.zoneRT, n)
	ev.delay = grow(ev.delay, k)
	ev.loads = grow(ev.loads, m)
	if len(ev.cordoned) != m {
		ev.cordoned = make([]bool, m)
	}
	ev.trafficOn = p.TrafficOn()

	// Rebinding invalidates every cached zone-move delta; the cache is
	// sized here so mutation-side invalidation stays O(1).
	ev.tele.invalidations.Add(ev.cache.invalidateAll())
	ev.cache.ensure(n, m, ev.trafficOn)
	ev.load(ev.zoneServer, ev.contact, false)
}

// Adoption is what Adopt walked: zones whose host changed, clients whose
// contact changed, candidate-delta rows left clean, and how many of those
// are rehosted zones' rows, rebased.
type Adoption struct{ Rehosted, Switched, RowsKept, Rebased int }

// Adopt installs a — a new solution of the BOUND problem, a full re-solve's
// — leaving every scalar exactly as Reset(p, a) would (EvaluatorState pins
// them) but the candidate-delta rows warm: a rehosted zone's row is rebased
// (rebaseRow; its own and its neighbours' traffic entries go stale), and
// each client whose contact changed, or whose role the rehosting changes, is
// retracted from the row and re-added, like a contact switch and under the
// same drift rule. Only a row failing the cost rule (rebaseCost) goes dirty.
func (ev *Evaluator) Adopt(a *Assignment) Adoption {
	st := ev.load(a.ZoneServer, a.ClientContact, true)
	for _, dirty := range ev.cache.dirty {
		if !dirty {
			st.RowsKept++
		}
	}
	ev.tele.rowsKept.Add(uint64(st.RowsKept))
	return st
}

// load installs the solution (hosts, contacts) on the sized evaluator:
// buckets rebuilt in client order and every accumulator re-summed fresh in
// that order. With adopt set the evaluator holds the bound problem's previous
// solution, whose rows, contacts and delays it reads before overwriting them
// (Adopt); a client whose contact and target both stay keeps its delay, a
// pure function of the two. Without, the solution is already in place.
func (ev *Evaluator) load(hosts, contacts []int, adopt bool) (st Adoption) {
	p := ev.p
	// Per zone, in the scan's scratch (free between scans): for a rehosted
	// zone with a clean row, how many more clients may change role before
	// the cost rule dirties it; -1 for every other zone.
	ev.cache.bestSrv = grow(ev.cache.bestSrv, len(hosts))
	budget := ev.cache.bestSrv
	for z, s := range hosts {
		budget[z] = -1
		if adopt && ev.zoneServer[z] != s {
			st.Rehosted++
			if ev.cache.clean(z) {
				budget[z] = len(ev.zoneMembers[z]) / rebaseCost
			}
			if ev.trafficOn {
				nbr, _ := p.Adjacency.Row(z)
				for _, y := range nbr {
					ev.touchTraffic(int(y))
				}
			}
		}
		ev.zoneMembers[z] = ev.zoneMembers[z][:0]
		ev.zoneRT[z] = 0
	}
	for j, z := range p.ClientZones {
		ev.posInZone[j] = len(ev.zoneMembers[z])
		ev.zoneMembers[z] = append(ev.zoneMembers[z], j)
		if budget[z] >= 0 && roleChanges(ev.zoneServer[z], ev.contact[j], hosts[z], contacts[j]) {
			if budget[z]--; budget[z] < 0 {
				ev.touchZone(z)
			}
		}
	}
	for i := range ev.loads {
		ev.loads[i] = 0
	}
	ev.withQoS, ev.rapCost, ev.totalLoad = 0, 0, 0
	for j, z := range p.ClientZones {
		rt := p.ClientRT[j]
		ev.zoneRT[z] += rt
		t, c := hosts[z], contacts[j]
		ev.loads[t] += rt
		if c != t {
			ev.loads[c] += 2 * rt
		}
		h, oc := ev.zoneServer[z], ev.contact[j]
		var d float64
		if adopt && t == h && c == oc {
			d = ev.delay[j]
		} else {
			if adopt && c != oc {
				st.Switched++
			}
			from := standing{h, oc, ev.delay[j]}
			ev.contact[j] = c
			if c == t {
				d = p.CSAt(j, t)
			} else {
				d = p.CSAt(j, c) + p.SS[c][t]
			}
			ev.delay[j] = d
			// The rebase below carries a client that keeps its role; any other
			// is retracted in the old base and re-added in the new one here
			// (the row is linear in them, so the order is free).
			if adopt && ev.cache.clean(z) && roleChanges(h, oc, t, c) {
				ev.readjustRowForClient(j, from, standing{t, c, d})
			}
		}
		if d <= p.D {
			ev.withQoS++
		} else {
			ev.rapCost += d - p.D
		}
	}
	for z, s := range hosts {
		if adopt && ev.zoneServer[z] != s && ev.rebaseRow(z, s) {
			st.Rebased++
		}
	}
	copy(ev.zoneServer, hosts)
	for _, l := range ev.loads {
		ev.totalLoad += l
	}
	ev.trafficCut, ev.cutEdges = 0, 0
	if p.Adjacency != nil {
		ev.trafficCut = p.Adjacency.CutWeight(ev.zoneServer)
		ev.cutEdges, _ = ev.CrossEdges()
	}
	return st
}

// clientsOf returns the client IDs of zone z.
func (ev *Evaluator) clientsOf(z int) []int {
	return ev.zoneMembers[z]
}

// csRow returns client j's delay row for the sequential row-streaming
// scans, materialized into the evaluator's scratch buffer when the delay
// store has no real row to hand out. The result is read-only and
// invalidated by the next csRow or mutation; never call from the parallel
// shard workers (they carry their own scratch).
func (ev *Evaluator) csRow(j int) []float64 {
	ev.rowScratch = grow(ev.rowScratch, ev.p.NumServers())
	return ev.p.CSRow(j, ev.rowScratch)
}

// WithQoS returns the number of clients whose effective delay meets the
// bound.
func (ev *Evaluator) WithQoS() int { return ev.withQoS }

// TotalLoad returns the summed server bandwidth load.
func (ev *Evaluator) TotalLoad() float64 { return ev.totalLoad }

// ClientDelay returns client j's current effective delay.
func (ev *Evaluator) ClientDelay(j int) float64 { return ev.delay[j] }

// ServerLoad returns server i's current bandwidth load.
func (ev *Evaluator) ServerLoad(i int) float64 { return ev.loads[i] }

// Assignment returns a fresh copy of the evaluator's current solution.
func (ev *Evaluator) Assignment() *Assignment {
	return &Assignment{
		ZoneServer:    append([]int(nil), ev.zoneServer...),
		ClientContact: append([]int(nil), ev.contact...),
	}
}

// Metrics returns what Evaluate(problem, Assignment()) would, bit for bit,
// without reading a delay: Delays and WithQoS are the maintained per-client
// values (each exactly the sum Evaluate forms), and the load ratios come
// from a fresh ServerLoads pass, because the incrementally maintained loads
// carry their update history's rounding. O(clients + servers).
func (ev *Evaluator) Metrics() Metrics {
	m := Metrics{WithQoS: ev.withQoS, Delays: make([]float64, len(ev.delay))}
	copy(m.Delays, ev.delay)
	a := Assignment{ZoneServer: ev.zoneServer, ClientContact: ev.contact}
	m.setRatios(ev.p, a.ServerLoads(ev.p))
	return m
}

// score returns the current lexicographic objective.
func (ev *Evaluator) score() score {
	s := score{withQoS: ev.withQoS, rapCost: ev.rapCost, load: ev.totalLoad}
	if ev.trafficOn {
		s.traffic = ev.p.TrafficWeight * ev.trafficCut
	}
	return s
}

// ApplyZoneMove rehosts zone z on server s, updating all derived state
// incrementally in O(clients of z) and rebasing the zone's cached row.
// Clients whose contact was the old target follow to s, matching the
// zone-move neighbourhood of LocalSearch.
func (ev *Evaluator) ApplyZoneMove(z, s int) {
	p := ev.p
	old := ev.zoneServer[z]
	if s == old {
		return
	}
	if p.Adjacency != nil {
		// O(degree): edges to zones on the old host become cut, edges to
		// zones on the destination become internal; every neighbor's cached
		// delta row saw z's host change (evaluator_traffic.go).
		ev.applyTrafficMove(z, old, s)
	}
	ev.loads[old] -= ev.zoneRT[z]
	ev.loads[s] += ev.zoneRT[z]
	// The cost rule: the clients forwarded through s change role.
	budget := len(ev.clientsOf(z)) / rebaseCost
	for _, j := range ev.clientsOf(z) {
		if ev.contact[j] == s {
			if budget--; budget < 0 {
				ev.touchZone(z)
				break
			}
		}
	}
	for _, j := range ev.clientsOf(z) {
		c := ev.contact[j]
		od := ev.delay[j]
		var nd float64
		switch {
		case c == old:
			ev.contact[j] = s
			nd = p.CSAt(j, s)
		case c == s:
			nd = p.CSAt(j, s)
			ev.loads[s] -= 2 * p.ClientRT[j]
			ev.totalLoad -= 2 * p.ClientRT[j]
			ev.readjustRowForClient(j, standing{old, c, od}, standing{s, s, nd})
		default:
			nd = p.CSAt(j, c) + p.SS[c][s]
		}
		if od <= p.D {
			ev.withQoS--
		} else {
			ev.rapCost -= od - p.D
		}
		if nd <= p.D {
			ev.withQoS++
		} else {
			ev.rapCost += nd - p.D
		}
		ev.delay[j] = nd
	}
	ev.zoneServer[z] = s
	ev.rebaseRow(z, s)
}

// ApplyContactSwitch points client j's contact at server s, updating all
// derived state in O(1) — plus an O(servers) adjustment of the client's
// zone row in the candidate-delta cache, which keeps the row usable
// instead of invalidating it (contact switches are the high-volume
// mutation of the search's inner loop).
func (ev *Evaluator) ApplyContactSwitch(j, s int) {
	p := ev.p
	c := ev.contact[j]
	if s == c {
		return
	}
	from := ev.standingOf(j)
	t := from.host
	rt2 := 2 * p.ClientRT[j]
	if c != t {
		ev.loads[c] -= rt2
		ev.totalLoad -= rt2
	}
	if s != t {
		ev.loads[s] += rt2
		ev.totalLoad += rt2
	}
	var nd float64
	if s == t {
		nd = p.CSAt(j, t)
	} else {
		nd = p.CSAt(j, s) + p.SS[s][t]
	}
	od := ev.delay[j]
	if od <= p.D {
		ev.withQoS--
	} else {
		ev.rapCost -= od - p.D
	}
	if nd <= p.D {
		ev.withQoS++
	} else {
		ev.rapCost += nd - p.D
	}
	ev.delay[j] = nd
	ev.contact[j] = s
	ev.readjustRowForClient(j, from, standing{t, s, nd})
}

// LocalSearch is a best-improvement hill climber layered on top of any
// two-phase result — an extension beyond the paper used to measure how much
// headroom the greedy heuristics leave (DESIGN.md §5). It runs on the
// evaluator's current solution, mutating it in place, and reports whether
// any move was accepted. Two neighbourhoods:
//
//  1. zone moves: rehost one zone on a different server with capacity for
//     it; clients of the zone whose contact was the old target follow to
//     the new target, other contacts are kept;
//  2. contact switches: change one client's contact server (respecting the
//     2×RT forwarding load on a non-target contact).
//
// Moves are accepted when they improve (WithQoS, -RAPCost, -totalLoad)
// lexicographically. The search stops after maxRounds full passes or when
// no move improves.
//
// Scoring is incremental: a zone move costs O(clients of the zone) and a
// contact switch O(1), with no cloning and no per-candidate allocation. The
// zone-move scan runs through the candidate-delta cache (movecache.go), so
// rounds after the first pay only for zones the previous round touched
// (DESIGN.md §8). localSearchOracle retains the original clone-and-rescore
// implementation as a test oracle; the equivalence tests in
// evaluator_test.go prove both accept identical move sequences. To amortise
// the evaluator's buffers across repeated searches (replication or churn
// loops), hold an Evaluator and Reset it.
//
// SetWorkers > 1 shards the zone-move candidate scan across that many
// goroutines, with accepted moves bit-identical to the sequential scan for
// every worker count — see parallel_test.go.
func (ev *Evaluator) LocalSearch(maxRounds int) bool {
	any := false
	for round := 0; round < maxRounds; round++ {
		improvedZone := ev.bestZoneMove()
		improvedContact := ev.contactSwitchPass()
		if !improvedZone && !improvedContact {
			break
		}
		any = true
	}
	return any
}

// contactSwitchPass greedily improves each out-of-bound client's contact,
// in client order, exactly like the oracle's tryBestContactSwitch: a switch
// is taken only when it shrinks the excess of a client beyond the bound
// (delay already within the bound changes nothing the CAP counts).
func (ev *Evaluator) contactSwitchPass() bool {
	p := ev.p
	m := p.NumServers()
	improved := false
	for j := range p.ClientZones {
		curDelay := ev.delay[j]
		if curDelay <= p.D {
			continue
		}
		t := ev.zoneServer[p.ClientZones[j]]
		cur := ev.contact[j]
		bestServer := -1
		bestDelay := curDelay
		row := ev.csRow(j)
		for s := 0; s < m; s++ {
			if s == cur {
				continue
			}
			var d float64
			if s == t {
				d = row[t]
			} else {
				if ev.cordoned[s] || !almostLE(ev.loads[s]+2*p.ClientRT[j], p.ServerCaps[s]) {
					continue
				}
				d = row[s] + p.SS[s][t]
			}
			if d < bestDelay-1e-12 {
				bestDelay, bestServer = d, s
			}
		}
		if bestServer >= 0 {
			ev.ApplyContactSwitch(j, bestServer)
			improved = true
		}
	}
	return improved
}
