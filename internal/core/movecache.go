package core

// Parallel sharded zone-move search with candidate-delta caching
// (DESIGN.md §8). Two independent accelerations of the local search's
// dominant cost, the (zone × server) candidate scan:
//
//  1. Candidate-delta cache: the objective delta of rehosting zone z on
//     server s is a pure function of the zone's local state — its clients'
//     delays, contacts, delay rows and bandwidth, and the zone's current
//     host. Those deltas are memoised in a flat (zones × servers) matrix,
//     one row per zone, and the rows are MAINTAINED rather than thrown
//     away: a row is a sum of per-client contributions, so every mutation
//     that changes one client — join, leave, move, delay refresh, contact
//     switch — retracts and/or adds that client's contribution in
//     O(servers) with one delay-row read (adjustRowForClient), and a
//     bandwidth change shifts the single dLoad entry it touches in O(1).
//     The zone's own rehosting — a move, a handoff, a drain, an adopted
//     re-solve — REBASES the row in O(servers): entries are relative to
//     the host, so each gives up the new host's (rebaseRow), and only the
//     clients whose role changes are readjusted. A row is marked dirty, and
//     rebuilt in O(servers × clients of the zone) by the next fold that
//     wants it, only by a rebind (Reset, RestoreState, the ExportState
//     barrier), a server-dimension change, the bulk per-server delay
//     column, a rehosting not worth rebasing (rebaseCost) and the drift
//     rule below. The traffic entries carry their own dirty bit, so an
//     adjacency edit or a rehosting — the zone's own or a neighbour's —
//     re-derives dTraffic alone in O(degree + servers). Destination
//     feasibility is never cached: it is checked against live loads at fold
//     time, which is what keeps the cache sound while loads shift under it.
//
//  2. Sharded scan: the per-zone fold is embarrassingly parallel. With
//     Options.Workers > 1, zones are sharded across a worker pool (strided
//     so clustered dirty rows balance); each worker refreshes the dirty
//     rows of its shard and folds every row against a read-only snapshot
//     of the evaluator's scalar state, writing its per-zone winner into a
//     slot owned by that zone. A deterministic reduction then folds the
//     per-zone winners in ascending zone order, accepting only strict
//     improvements — so the lowest zone index (and within a zone, the
//     lowest server index) wins ties, exactly like the sequential fold.
//
// Every fold — the local search's bestZoneMove, the repair path's
// ImproveZone, the drain path's BestZoneHost — reads these rows through
// bestInRow; there is no second, cache-free way to score a zone move
// outside the test oracle (movecache_oracle_test.go).
//
// Determinism contract: the parallel scan is bit-identical to the
// sequential cached scan by construction — workers compute the same pure
// per-zone results from the same cache state and the reduction is a fixed
// serial fold — so the worker count NEVER changes an outcome, and which
// rows are clean, dirty or due for a rebuild is a function of the event
// history alone. Against the cache-free test oracle, a freshly built row
// is bit-identical (same operands, same summation order); a maintained
// row can differ from a fresh build by the float rounding of its
// retract-and-re-add adjustments, which maxRowAdjustments bounds. All tie
// comparisons go through the shared tolerance helpers sized far above
// that drift, and the equivalence tests in parallel_test.go enforce
// move-for-move identity against the rescan on generous and tight
// instances for every worker count.

import (
	"runtime"
	"sync"
)

// moveCache memoises per-(zone, server) rehosting deltas plus the per-scan
// reduction buffers. All slices are flat and reused across scans; the
// matrix is (zones × servers) with server as the fast axis.
type moveCache struct {
	servers int // row stride; 0 until first ensure

	dQoS  []int32   // QoS-count delta per candidate
	dRap  []float64 // RAP-cost delta per candidate
	dLoad []float64 // total-load delta per candidate
	dirty []bool    // per zone: row must be rebuilt from scratch before use

	// adjusts counts the adjustments applied to each row since it was last
	// built; reaching maxRowAdjustments dirties the row.
	adjusts []uint16

	// Traffic term (DESIGN.md §15): dTraffic holds the weighted traffic
	// delta per candidate, allocated and maintained only while the term is
	// on (traffic) — problems without adjacency pay neither the memory nor
	// the row fills. tdirty marks rows whose dTraffic entries alone are
	// stale (an adjacency edit, a neighbour rehosted): the client sums of
	// such a row are still good, so only dTraffic is re-derived.
	traffic  bool
	dTraffic []float64
	tdirty   []bool

	// Per-scan reduction state: each zone's best destination and candidate
	// score, written by the owning worker, folded by the reducer.
	bestSrv  []int
	bestCand []score
}

// ensure sizes the cache for an (n zones × m servers) problem with or
// without the traffic term. Dimension changes — and the traffic term
// switching on, which every cached row would otherwise lack — invalidate
// everything; matching shapes keep cached rows.
func (c *moveCache) ensure(n, m int, traffic bool) {
	if c.servers == m && len(c.dirty) == n && c.traffic == traffic {
		return
	}
	c.servers = m
	c.traffic = traffic
	c.dQoS = grow(c.dQoS, n*m)
	c.dRap = grow(c.dRap, n*m)
	c.dLoad = grow(c.dLoad, n*m)
	if traffic {
		c.dTraffic = grow(c.dTraffic, n*m)
	}
	c.dirty = grow(c.dirty, n)
	c.adjusts = grow(c.adjusts, n)
	c.tdirty = grow(c.tdirty, n)
	c.bestSrv = grow(c.bestSrv, n)
	c.bestCand = grow(c.bestCand, n)
	c.invalidateAll()
}

// invalidateAll marks every row stale (Reset, checkpoint barrier, server-
// dimension change, traffic term switching on — not a re-solve: Adopt) and
// returns how many were clean, for the invalidation counter. A rebuild
// resets the row's adjustment count and traffic bit.
func (c *moveCache) invalidateAll() (clean uint64) {
	for i, d := range c.dirty {
		if !d {
			clean++
			c.dirty[i] = true
		}
	}
	return clean
}

// growZones extends the cache to n zones without invalidating existing
// rows — a cached row is a pure function of zone-local state, which adding
// another zone does not touch. New rows start dirty. A no-op before the
// cache is first sized (ensure builds it all-dirty anyway).
func (c *moveCache) growZones(n int) {
	if c.servers == 0 || len(c.dirty) >= n {
		return
	}
	m := c.servers
	c.dQoS = growCopy(c.dQoS, n*m)
	c.dRap = growCopy(c.dRap, n*m)
	c.dLoad = growCopy(c.dLoad, n*m)
	if c.traffic {
		c.dTraffic = growCopy(c.dTraffic, n*m)
	}
	old := len(c.dirty)
	c.dirty = growCopy(c.dirty, n)
	for z := old; z < n; z++ {
		c.dirty[z] = true
	}
	c.adjusts = growCopy(c.adjusts, n)
	c.tdirty = growCopy(c.tdirty, n)
	c.bestSrv = grow(c.bestSrv, n)
	c.bestCand = grow(c.bestCand, n)
}

// shrinkZones removes zone z's row after the evaluator swap-removed the
// zone: the last zone's row (contents, dirty bits and adjustment count) is
// relocated to slot z — renumbering does not change zone-local state, so
// the row stays exact — and the cache is truncated to l rows. A no-op
// before the cache is first sized.
func (c *moveCache) shrinkZones(z, l int) {
	if c.servers == 0 || len(c.dirty) == 0 {
		return
	}
	m := c.servers
	if z != l {
		copy(c.dQoS[z*m:(z+1)*m], c.dQoS[l*m:(l+1)*m])
		copy(c.dRap[z*m:(z+1)*m], c.dRap[l*m:(l+1)*m])
		copy(c.dLoad[z*m:(z+1)*m], c.dLoad[l*m:(l+1)*m])
		if c.traffic {
			copy(c.dTraffic[z*m:(z+1)*m], c.dTraffic[l*m:(l+1)*m])
		}
		c.dirty[z] = c.dirty[l]
		c.adjusts[z] = c.adjusts[l]
		c.tdirty[z] = c.tdirty[l]
	}
	c.dQoS = c.dQoS[:l*m]
	c.dRap = c.dRap[:l*m]
	c.dLoad = c.dLoad[:l*m]
	if c.traffic {
		c.dTraffic = c.dTraffic[:l*m]
	}
	c.dirty = c.dirty[:l]
	c.adjusts = c.adjusts[:l]
	c.tdirty = c.tdirty[:l]
	c.bestSrv = c.bestSrv[:l]
	c.bestCand = c.bestCand[:l]
}

// clean reports whether zone z has a row and it is not dirty.
func (c *moveCache) clean(z int) bool { return z < len(c.dirty) && !c.dirty[z] }

// growCopy is grow preserving contents across a reallocation (grow's
// contents are unspecified when it reallocates, which is fine for scratch
// buffers but not for cached rows).
func growCopy[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// maxRowAdjustments is how many adjustments a row absorbs before it is
// rebuilt from scratch, which is what bounds the float drift of
// retract-and-re-add. One adjustment performs at most two rounded additions
// on a dRap entry (retract the client's old standing, add its new one) and
// one on a dLoad entry; each rounds by at most 2^-53 of the running sum,
// itself bounded by the row's magnitude M = Σ|terms|. After N adjustments
// an entry therefore sits within 2N·2^-53·M of a fresh build: for N = 2^12
// that is 2^-40 ≈ 9e-13 of M, three orders of magnitude inside the 1e-9
// relative tolerance (almostEq) every comparison of these sums goes
// through. On the cost side a rebuild reads one delay row per client of
// the zone — what one adjustment reads — so spreading it over 4096
// adjustments adds clients/4096 of an adjustment to each: under one for any
// zone of up to 4096 clients. The count depends on the event history
// alone, so rebuilds land on the same events for every worker count and on
// both sides of a checkpoint (ExportState dirties every row, and a rebuild
// zeroes its count).
const maxRowAdjustments = 1 << 12

// touchZone marks zone z's whole cached row stale: the next fold that wants
// it rebuilds it from scratch. Called by the bulk delay-column overlay, the
// cost rule of a rehosting (rebaseCost) and the drift rule. A no-op before
// the cache is first built — rows start dirty.
func (ev *Evaluator) touchZone(z int) {
	if z < len(ev.cache.dirty) {
		if !ev.cache.dirty[z] {
			ev.tele.invalidations.Inc()
		}
		ev.cache.dirty[z] = true
	}
}

// touchTraffic marks only zone z's dTraffic entries stale — one of its
// adjacency edges changed weight, or a neighbour was rehosted. The client
// sums of the row stay valid.
func (ev *Evaluator) touchTraffic(z int) {
	if z < len(ev.cache.tdirty) {
		ev.cache.tdirty[z] = true
	}
}

// noteAdjustment counts one in-place adjustment of zone z's clean row and
// applies the drift rule.
func (ev *Evaluator) noteAdjustment(z int) {
	ev.cache.adjusts[z]++
	if ev.cache.adjusts[z] >= maxRowAdjustments {
		ev.touchZone(z)
	}
}

// SetWorkers configures the goroutine count of the sharded zone-move scan:
// n > 1 shards zones across n goroutines, n of 0 or 1 scans sequentially,
// and n < 0 uses runtime.GOMAXPROCS(0). The accepted move sequence is
// bit-identical for every setting — parallelism changes scheduling, never
// results.
func (ev *Evaluator) SetWorkers(n int) {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	ev.workers = n
}

// plus applies a pure delta to a score. Every candidate comparison in the
// search goes through this one addition per component, so cached and
// freshly computed candidates are bit-identical. With the traffic term off
// both traffic operands are exactly 0.0 and the sum stays 0.0.
func (s score) plus(dQoS int32, dRap, dLoad, dTraffic float64) score {
	return score{
		withQoS: s.withQoS + int(dQoS),
		rapCost: s.rapCost + dRap,
		traffic: s.traffic + dTraffic,
		load:    s.load + dLoad,
	}
}

// syncRow brings zone z's cached row up to date for a fold: a dirty row is
// rebuilt from scratch, a row whose traffic entries alone are stale
// re-derives just those in O(degree + servers), a clean row costs two
// loads. Safe to run concurrently for distinct zones: it writes only row z
// and zone z's bookkeeping slots. scratch is the row-materialization buffer
// (len = servers); concurrent callers MUST pass distinct buffers — the
// shard workers of bestZoneMove allocate one each.
func (ev *Evaluator) syncRow(z int, scratch []float64) {
	switch {
	case ev.cache.dirty[z]:
		ev.refreshRow(z, scratch)
	case ev.trafficOn && ev.cache.tdirty[z]:
		m := ev.cache.servers
		ev.refreshTrafficRow(z, ev.zoneServer[z], ev.cache.dTraffic[z*m:(z+1)*m])
	}
}

// foldReady prepares zone z's row for a single-zone fold (ImproveZone,
// BestZoneHost), counting it as a cache hit or a refresh. It reports false
// — leaving a dirty row dirty — when no available destination has room for
// the zone: there is nothing to fold then, and on a near-full fleet
// building the row would be the whole cost of the event.
func (ev *Evaluator) foldReady(z int) bool {
	p := ev.p
	ev.cache.ensure(p.NumZones, p.NumServers(), ev.trafficOn)
	if !ev.cache.dirty[z] {
		ev.tele.rowHits.Inc()
	} else if ev.hasDestination(z) {
		ev.tele.rowRefreshes.Inc()
	} else {
		return false
	}
	ev.rowScratch = grow(ev.rowScratch, ev.cache.servers)
	ev.syncRow(z, ev.rowScratch)
	return true
}

// hasDestination reports whether any available server other than zone z's
// host has room for the zone — bestInRow's feasibility test on its own.
func (ev *Evaluator) hasDestination(z int) bool {
	old, rt := ev.zoneServer[z], ev.zoneRT[z]
	for s, load := range ev.loads {
		if s != old && !ev.cordoned[s] && almostLE(load+rt, ev.p.ServerCaps[s]) {
			return true
		}
	}
	return false
}

// refreshRow rebuilds zone z's cached delta row from scratch and clears
// its dirty bits and adjustment count: zero the row, add every client's
// contribution. O(servers × clients of z), client-outer/server-inner so
// each client's standing loads once and the inner loop streams its delay
// row. Per destination the accumulators receive the operands of a direct
// per-(zone, server) sum over the zone's clients, in the same order, so a
// freshly built entry is bit-identical to the test oracle's.
func (ev *Evaluator) refreshRow(z int, scratch []float64) {
	p := ev.p
	dQoS, dRap, dLoad := ev.cache.row(z)
	clear(dQoS)
	clear(dRap)
	clear(dLoad)
	if ev.trafficOn {
		m := ev.cache.servers
		ev.refreshTrafficRow(z, ev.zoneServer[z], ev.cache.dTraffic[z*m:(z+1)*m])
	}
	old := ev.zoneServer[z]
	for _, j := range ev.zoneMembers[z] {
		ev.cache.addContribution(p, z, p.CSRow(j, scratch), p.ClientRT[j], 1, standing{old, ev.contact[j], ev.delay[j]})
	}
	ev.cache.dirty[z] = false
	ev.cache.adjusts[z] = 0
}

// row returns zone z's cached dQoS, dRap and dLoad entries.
func (c *moveCache) row(z int) (dQoS []int32, dRap, dLoad []float64) {
	m := c.servers
	return c.dQoS[z*m : (z+1)*m], c.dRap[z*m : (z+1)*m], c.dLoad[z*m : (z+1)*m]
}

// addContribution adds sign (±1) times one client's contribution to zone
// z's row: the client has delay row cs, bandwidth rt and standing st, and
// the row entry of destination s gains what moving the zone to s changes
// about it — its QoS standing or excess delay, and for a forwarded client
// whose contact is s the forwarding load s would stop carrying. The one
// formula every row is built and maintained with. It writes row z and
// nothing else — no bookkeeping — so shard workers rebuilding distinct
// rows may run it concurrently. Multiplying by ±1 is exact, so a +1 pass
// sums the operands a fresh build sums.
// Its loops run over the spans between the old host and the contact and
// carry no invariant branch; DESIGN.md §8 gives why that form is exact.
func (c *moveCache) addContribution(p *Problem, z int, cs []float64, rt float64, sign int32, st standing) {
	dQoS, dRap, dLoad := c.row(z)
	old, contact := st.host, st.contact
	k := clientTerm{d: p.D, sign: sign, fsign: float64(sign), inQoS: st.delay <= p.D}
	if !k.inQoS {
		k.excess = k.fsign * (st.delay - p.D)
	}
	nd, off := cs[:len(dQoS)], 0.0
	if contact != old {
		nd, off = p.SS[contact][:len(dQoS)], cs[contact]
		dLoad[contact] -= k.fsign * 2 * rt
		k.add(dQoS[contact:contact+1], dRap[contact:contact+1], cs[contact:contact+1], 0)
	}
	lo, hi := min(old, contact), max(old, contact)
	k.add(dQoS[:lo], dRap[:lo], nd[:lo], off)
	if lo < hi {
		k.add(dQoS[lo+1:hi], dRap[lo+1:hi], nd[lo+1:hi], off)
	}
	k.add(dQoS[hi+1:], dRap[hi+1:], nd[hi+1:], off)
}

// clientTerm is one client's contribution to a row with its loop
// invariants hoisted: the bound d, the sign and the signed excess delay.
type clientTerm struct {
	d, fsign, excess float64
	sign             int32
	inQoS            bool
}

// add applies the term to a span of destinations whose delay is off+nd[s].
// In QoS, the retract's −sign and a destination's +sign cancel, so only
// destinations not within d are written; out of QoS, the excess is retracted
// before the new standing is added, as a fresh per-entry sum orders them.
func (k clientTerm) add(dQoS []int32, dRap, nd []float64, off float64) {
	dRap, nd = dRap[:len(dQoS)], nd[:len(dQoS)]
	if k.inQoS {
		for s := range dQoS {
			if v := off + nd[s]; !(v <= k.d) {
				dQoS[s] -= k.sign
				dRap[s] += k.fsign * (v - k.d)
			}
		}
		return
	}
	for s := range dQoS {
		dRap[s] -= k.excess
		if v := off + nd[s]; v <= k.d {
			dQoS[s] += k.sign
		} else {
			dRap[s] += k.fsign * (v - k.d)
		}
	}
}

// standing is what a client's contribution to its zone's row is a function
// of besides its delay row: the zone's host, its contact, its effective delay.
type standing struct {
	host, contact int
	delay         float64
}

// standingOf returns client j's current standing.
func (ev *Evaluator) standingOf(j int) standing {
	return standing{ev.zoneServer[ev.p.ClientZones[j]], ev.contact[j], ev.delay[j]}
}

// adjustRowForClient adds sign (±1) times client j's contribution under
// standing st to its zone's cached row — the O(servers) repair every
// single-client mutation needs, in place of re-deriving the whole row in
// O(servers × clients of zone). Call with -1 and the standing (and delay
// row) the row was built with, +1 with the final one: a join only adds, a
// leave only retracts, a move retracts from the vacated zone's row and adds
// to the entered one's. A no-op when the row is dirty anyway.
// Retract-and-re-add leaves the float entries within rounding of a fresh
// build (the integer QoS entries stay exact), bounded by maxRowAdjustments;
// every tie comparison goes through the shared tolerance helpers, and the
// equivalence tests hold move-for-move.
func (ev *Evaluator) adjustRowForClient(j int, sign int32, st standing) {
	if z := ev.p.ClientZones[j]; ev.cache.clean(z) {
		ev.addStanding(z, j, ev.adjRow(j), sign, st)
	}
}

// readjustRowForClient retracts client j's contribution under from and adds
// the one under to — a contact switch, an adoption's switched client, a
// rebase's role change — reading the delay row once. Per entry the retract
// lands before the add, exactly as two adjustRowForClient calls would apply
// them; the add is skipped when the retract crossed the drift rule.
func (ev *Evaluator) readjustRowForClient(j int, from, to standing) {
	z := ev.p.ClientZones[j]
	if !ev.cache.clean(z) {
		return
	}
	cs := ev.adjRow(j)
	ev.addStanding(z, j, cs, -1, from)
	if !ev.cache.dirty[z] {
		ev.addStanding(z, j, cs, 1, to)
	}
}

// adjRow reads client j's delay row into the dedicated scratch: callers
// (ApplyContactSwitch) may hold a csRow result in the shared rowScratch.
func (ev *Evaluator) adjRow(j int) []float64 {
	ev.adjScratch = grow(ev.adjScratch, ev.cache.servers)
	return ev.p.CSRow(j, ev.adjScratch)
}

// addStanding applies one contribution of client j (delay row cs) to zone
// z's clean row and counts the adjustment.
func (ev *Evaluator) addStanding(z, j int, cs []float64, sign int32, st standing) {
	ev.tele.rowAdjusts.Inc()
	ev.cache.addContribution(ev.p, z, cs, ev.p.ClientRT[j], sign, st)
	ev.noteAdjustment(z)
}

// rebaseCost is the cost rule of a rehosting: the row is rebased while
// rebaseCost × (clients whose role changes) ≤ clients of the zone, and
// dirtied otherwise, before any of them is readjusted — each role change is
// an eager O(servers) readjustment with a delay-row read, the rebuild it
// saves one such read per client, lazy.
const rebaseCost = 16

// roleChanges reports whether a client changes role in its zone's row
// when the host goes from h to t and its contact from oc to c: direct on the
// host is one role, forwarded through a contact one role per contact.
func roleChanges(h, oc, t, c int) bool {
	return (oc == h) != (c == t) || (oc != h && oc != c)
}

// rebaseRow moves zone z's clean row from its old host's base to new host
// t's, in O(servers): an entry is Σ_clients f(standing at candidate s) −
// f(current standing), so every entry gives up entry t — which becomes the
// new zero, the old host's entry (zero until now) −row[t]. Exact for a client
// that is direct before and after, or forwarded through the same contact
// before and after; the callers readjust the others. dTraffic is a function
// of the host, so the zone's own traffic bit is set. Counts as one adjustment
// (one rounded subtraction per entry) and reports whether the row ends clean.
func (ev *Evaluator) rebaseRow(z, t int) bool {
	if !ev.cache.clean(z) {
		return false
	}
	dQoS, dRap, dLoad := ev.cache.row(z)
	q, r, l := dQoS[t], dRap[t], dLoad[t]
	for s := range dQoS {
		dQoS[s] -= q
		dRap[s] -= r
		dLoad[s] -= l
	}
	ev.touchTraffic(z)
	ev.noteAdjustment(z)
	if ev.cache.dirty[z] {
		return false
	}
	ev.tele.rowsRebased.Inc()
	return true
}

// shiftRowLoad adds d to the dLoad entry of destination s in zone z's
// cached row — the O(1) repair a bandwidth change of a forwarding client
// needs (the row charges −2·RT for the hop its contact would stop making).
// A no-op when the row is dirty anyway.
func (ev *Evaluator) shiftRowLoad(z, s int, d float64) {
	if !ev.cache.clean(z) {
		return
	}
	ev.cache.dLoad[z*ev.cache.servers+s] += d
	ev.noteAdjustment(z)
}

// foldMode selects which candidates bestInRow accepts.
type foldMode uint8

const (
	// foldImproving takes strict improvements over base (the local search).
	foldImproving foldMode = iota
	// foldQuality is ImproveZone's repair filter on top: candidates must
	// gain QoS count or shrink the quality cost — a load-only improvement
	// is not worth a zone handoff.
	foldQuality
	// foldAny ranks every feasible destination and returns the best even
	// when all are worse than staying (BestZoneHost's forced evacuation).
	foldAny
)

// bestInRow folds zone z's cached row (which must be up to date — syncRow)
// against base, checking destination feasibility against live loads, and
// returns the zone's best candidate under mode (-1 when none qualifies).
// Servers are scanned in ascending order and a later one must be strictly
// better — the lowest server index wins ties.
func (ev *Evaluator) bestInRow(z int, base score, mode foldMode) (int, score) {
	p := ev.p
	m := ev.cache.servers
	old := ev.zoneServer[z]
	rt := ev.zoneRT[z]
	row := z * m
	bestSrv, best := -1, base
	for s := 0; s < m; s++ {
		if s == old || ev.cordoned[s] {
			continue
		}
		// Feasibility on the destination: it gains the zone's target load
		// (forwarding loads of followed clients stay zero because they land
		// on the new target itself). Always judged against live loads —
		// cached deltas are load-free by construction, and cordon state is
		// a live feasibility input just like loads.
		if !almostLE(ev.loads[s]+rt, p.ServerCaps[s]) {
			continue
		}
		var dt float64
		if ev.trafficOn {
			dt = ev.cache.dTraffic[row+s]
		}
		cand := base.plus(ev.cache.dQoS[row+s], ev.cache.dRap[row+s], ev.cache.dLoad[row+s], dt)
		if mode == foldQuality && (cand.withQoS < base.withQoS ||
			(cand.withQoS == base.withQoS && (almostEq(cand.quality(), base.quality()) || cand.quality() >= base.quality()))) {
			continue // no quality gain — not worth a handoff
		}
		if cand.betterThan(best) || (mode == foldAny && bestSrv < 0) {
			best, bestSrv = cand, s
		}
	}
	return bestSrv, best
}

// bestZoneMove applies the single best improving zone move, if any,
// scanning through the candidate-delta cache — sharded across the
// configured workers when more than one is set.
func (ev *Evaluator) bestZoneMove() bool {
	n := ev.p.NumZones
	ev.cache.ensure(n, ev.p.NumServers(), ev.trafficOn)
	defer ev.scanEnd(ev.scanStart(n))
	base := ev.score()
	workers := ev.workers
	if workers > n {
		workers = n
	}
	srv, cand := ev.cache.bestSrv, ev.cache.bestCand
	if workers <= 1 {
		ev.rowScratch = grow(ev.rowScratch, ev.cache.servers)
		for z := 0; z < n; z++ {
			ev.syncRow(z, ev.rowScratch)
			srv[z], cand[z] = ev.bestInRow(z, base, foldImproving)
		}
	} else {
		// Shard phase: workers own strided zone subsets (clustered dirty
		// rows balance across shards), bring their rows up to date and fold
		// every row against the read-only evaluator state, writing each
		// zone's winner into its own slot. No shared mutable state beyond
		// disjoint slice elements — every worker has its own
		// row-materialization scratch.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				scratch := make([]float64, ev.cache.servers)
				for z := w; z < n; z += workers {
					ev.syncRow(z, scratch)
					srv[z], cand[z] = ev.bestInRow(z, base, foldImproving)
				}
			}(w)
		}
		wg.Wait()
	}
	// Deterministic reduction: fold per-zone winners in ascending zone
	// order, strict improvement only — the lowest zone index wins ties,
	// exactly as the sequential scan's running fold would.
	bestZone, bestServer, best := -1, -1, base
	for z := 0; z < n; z++ {
		if srv[z] >= 0 && cand[z].betterThan(best) {
			best, bestZone, bestServer = cand[z], z, srv[z]
		}
	}
	if bestZone < 0 {
		return false
	}
	ev.ApplyZoneMove(bestZone, bestServer)
	return true
}
