package core

// Topology-dimension mutations for the Evaluator: servers and zones are
// added and removed on a live evaluator, the primitives the repair
// subsystem composes into live-topology events — capacity added under
// load, servers drained for rolling deploys, shards spun up or retired
// (DESIGN.md §10). Like the client mutations of evaluator_dyn.go, these
// mutate the bound *Problem* (capacity, SS and CS matrices are grown and
// swap-compacted in place), so they must only be used when the evaluator
// exclusively owns its problem.
//
// Dimension changes and the candidate-delta cache: growing or shrinking
// the *server* dimension changes the cache's row stride and the meaning of
// every destination column, so both invalidate the whole cache (O(zones)
// dirty bits; rows rebuild lazily on the next scan that wants them).
// Zone-dimension changes are precise: a cached row is a pure function of
// zone-local state, which renumbering does not touch, so AddZone keeps
// every existing row and RemoveZone relocates the renumbered zone's row
// together with its dirty bits and adjustment count.

// AddServer appends a server with the given bandwidth capacity,
// inter-server delay row ss (one entry per existing server, in server
// order; copied) and per-client delay column csCol (csCol[j] is client j's
// measured RTT to the new server; copied). NaN entries — or a nil csCol —
// mark clients as unmeasured: dense problems store the far-out-of-bound
// sentinel UnmeasuredDelayMs, delay providers substitute their model's
// prediction. The new server starts empty — no zones, no contacts, zero
// load — and is returned as the new dense server index.
// O(clients + servers + zones).
func (ev *Evaluator) AddServer(capacity float64, ss, csCol []float64) int {
	p := ev.p
	m := len(p.ServerCaps)
	p.ServerCaps = append(p.ServerCaps, capacity)
	for i := 0; i < m; i++ {
		p.SS[i] = append(p.SS[i], ss[i])
	}
	row := make([]float64, m+1)
	copy(row, ss)
	p.SS = append(p.SS, row)
	p.AppendCSCol(csCol)
	if li := ev.lateIndex(); li != nil {
		li.appendServer(p)
	}
	ev.loads = append(ev.loads, 0)
	ev.cordoned = append(ev.cordoned, false)
	// Server-dimension change: the cache stride shifts, every row rebuilds.
	ev.tele.invalidations.Add(ev.cache.invalidateAll())
	ev.cache.ensure(p.NumZones, m+1, ev.trafficOn)
	return m
}

// RemoveServer deletes server i, compacting by moving the last server into
// slot i (swap-remove, mirroring RemoveClient). The server must be empty:
// hosting no zones and serving no contacts — callers (the repair planner)
// enforce this. It returns the index the last server previously held, or
// -1 when i itself was last — callers tracking server identities use this
// to update their maps. O(clients + servers + zones).
func (ev *Evaluator) RemoveServer(i int) int {
	p := ev.p
	l := len(p.ServerCaps) - 1
	moved := -1
	if i != l {
		p.ServerCaps[i] = p.ServerCaps[l]
		ev.loads[i] = ev.loads[l]
		ev.cordoned[i] = ev.cordoned[l]
		// Row swap keeps the vacated row's backing array for a later
		// AddServer; the renumbered row's [i] entry becomes its self-delay
		// (old SS[l][l] = 0) through the column compaction below.
		p.SS[i], p.SS[l] = p.SS[l], p.SS[i]
		for z, s := range ev.zoneServer {
			if s == l {
				ev.zoneServer[z] = i
			}
		}
		for j, c := range ev.contact {
			if c == l {
				ev.contact[j] = i
			}
		}
		moved = l
	}
	p.ServerCaps = p.ServerCaps[:l]
	ev.loads = ev.loads[:l]
	ev.cordoned = ev.cordoned[:l]
	p.SS = p.SS[:l]
	for x := range p.SS {
		p.SS[x][i] = p.SS[x][l]
		p.SS[x] = p.SS[x][:l]
	}
	p.SwapRemoveCSCol(i)
	if li := ev.lateIndex(); li != nil {
		li.swapRemoveServer(i)
	}
	ev.tele.invalidations.Add(ev.cache.invalidateAll())
	ev.cache.ensure(p.NumZones, l, ev.trafficOn)
	return moved
}

// AddZone appends an empty zone hosted on server host and returns the new
// zone index. An empty zone carries no load; clients enter it through
// MoveClient or AddClient. O(1) amortised.
func (ev *Evaluator) AddZone(host int) int {
	p := ev.p
	z := p.NumZones
	p.NumZones++
	if p.Adjacency != nil {
		// Keep the interaction graph's zone dimension in lockstep; the new
		// zone starts edge-free, so existing cached rows and the cut are
		// untouched.
		p.Adjacency.AddZone()
	}
	ev.zoneServer = append(ev.zoneServer, host)
	ev.zoneRT = append(ev.zoneRT, 0)
	if cap(ev.zoneMembers) > z {
		ev.zoneMembers = ev.zoneMembers[:z+1]
		ev.zoneMembers[z] = ev.zoneMembers[z][:0]
	} else {
		ev.zoneMembers = append(ev.zoneMembers, nil)
	}
	ev.cache.growZones(z + 1)
	return z
}

// RemoveZone deletes zone z, compacting by renumbering the last zone to z
// (swap-remove). The zone must be empty — callers enforce this. It returns
// the index the last zone previously held, or -1 when z itself was last.
// O(clients of the renumbered zone).
func (ev *Evaluator) RemoveZone(z int) int {
	p := ev.p
	l := p.NumZones - 1
	if g := p.Adjacency; g != nil {
		// Retire z's interaction edges before the renumbering: cut edges
		// stop contributing to the incremental cut, and every neighbor's
		// cached traffic entries lose an edge. The graph then swap-removes
		// in lockstep (the relabeled zone keeps its host, so its neighbors'
		// rows stay exact — shrinkZones relocates the row and its dirty bits
		// below).
		nbr, wt := g.Row(z)
		hz := ev.zoneServer[z]
		for i, y := range nbr {
			if ev.trafficOn && ev.zoneServer[y] != hz {
				ev.trafficCut -= wt[i]
			}
			ev.touchTraffic(int(y))
		}
		g.RemoveZoneSwap(z)
	}
	moved := -1
	if z != l {
		ev.zoneServer[z] = ev.zoneServer[l]
		ev.zoneRT[z] = ev.zoneRT[l]
		// Bucket swap keeps the vacated (empty) bucket's capacity; member
		// positions are unchanged, so posInZone needs no fix-up.
		ev.zoneMembers[z], ev.zoneMembers[l] = ev.zoneMembers[l], ev.zoneMembers[z]
		for _, j := range ev.zoneMembers[z] {
			p.ClientZones[j] = z
		}
		moved = l
	}
	p.NumZones = l
	ev.zoneServer = ev.zoneServer[:l]
	ev.zoneRT = ev.zoneRT[:l]
	ev.zoneMembers = ev.zoneMembers[:l]
	ev.cache.shrinkZones(z, l)
	return moved
}

// SetCordon marks server i cordoned (true) or available (false). A
// cordoned server is excluded as a destination by every placement scan —
// GreedyContact, the contact-switch pass, ImproveZone and the zone-move
// search — while its existing zones and contacts are untouched; the drain
// path evacuates those explicitly. Cordon state survives Reset as long as
// the server count matches (a full re-solve must not forget an in-flight
// drain) and is cleared when the evaluator is rebound to a different
// server dimension. Feasibility is re-judged at fold time, so flipping a
// cordon invalidates nothing in the candidate-delta cache.
func (ev *Evaluator) SetCordon(i int, cordoned bool) { ev.cordoned[i] = cordoned }

// Cordoned reports whether server i is cordoned.
func (ev *Evaluator) Cordoned(i int) bool { return ev.cordoned[i] }

// SetClientServerDelay overlays one freshly measured RTT — client j to
// server i — and recomputes the client's effective delay, the column-wise
// counterpart of SetClientDelays for measurement streams keyed by server
// (a just-added server's delays arriving client by client). O(1): the
// zone's cached row is dirtied rather than adjusted — a column arrives for
// many clients of a zone at once, and one rebuild per zone is cheaper than
// one O(servers) adjustment per client.
func (ev *Evaluator) SetClientServerDelay(j, i int, d float64) {
	p := ev.p
	p.SetCSAt(j, i, d)
	if li := ev.lateIndex(); li != nil {
		li.setBit(j, i, isLate(p.CSAt(j, i), p.D))
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
	ev.touchZone(p.ClientZones[j])
}

// BestZoneHost returns the best destination for forcibly rehosting zone z
// away from its current host — the evacuation primitive of DrainServer.
// Unlike ImproveZone it does not require an improvement: every available
// (non-cordoned) destination with capacity for the zone is ranked by the
// zone-move objective and the best is returned even when all are worse
// than staying. When no destination has capacity, the available server
// with the largest residual capacity is returned (the spill rule of the
// greedy algorithms, so evacuation always completes). Returns -1 only when
// no available destination exists at all. Deterministic: ties go to the
// lowest server index, independent of the worker count. Folds the zone's
// maintained candidate-delta row like ImproveZone does, without its
// improvement filter.
func (ev *Evaluator) BestZoneHost(z int) int {
	p := ev.p
	old := ev.zoneServer[z]
	if ev.foldReady(z) {
		if best, _ := ev.bestInRow(z, ev.score(), foldAny); best >= 0 {
			return best
		}
	}
	// No feasible destination: spill onto the largest residual capacity.
	best, resid := -1, 0.0
	for s := 0; s < p.NumServers(); s++ {
		if s == old || ev.cordoned[s] {
			continue
		}
		if r := p.ServerCaps[s] - ev.loads[s]; best < 0 || r > resid {
			best, resid = s, r
		}
	}
	return best
}
