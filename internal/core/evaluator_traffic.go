package core

// Traffic-term maintenance for the Evaluator (DESIGN.md §15). The traffic
// term prices cross-server interaction: for each adjacency edge (z1, z2)
// with weight w, the solution pays w whenever the two zones are hosted on
// different servers. The evaluator maintains the unweighted cut weight
// incrementally — a zone move walks only the moved zone's neighbor row
// (O(degree)); contact switches and all client churn are traffic-neutral
// because they never change a zone's host; server swap-remove renumbering
// relabels hosts consistently, leaving the cut untouched.
//
// Determinism: every delta accumulates over a zone's neighbor row in its
// stored (ascending-neighbor) order, so the cached dTraffic entries
// (refreshTrafficRow), the test oracle's direct per-destination sum and the
// incremental cut update (applyTrafficMove) add bit-identical operand
// sequences into each accumulator. dTraffic entries are never adjusted in
// place — a stale row (its own traffic dirty bit, movecache.go) is
// re-derived whole in O(degree + servers) — so they carry no drift. With
// the term off only the cut and its edge count are kept (for Cut), and every
// score carries traffic == 0.0 — bit-identical to the pre-traffic solver.

import (
	"fmt"

	"dvecap/internal/interact"
)

// TrafficCut returns the current cross-server cut weight of the adjacency
// graph: the summed weight of interaction edges whose endpoint zones are
// hosted apart — the solver's estimate of cross-server broadcast traffic.
// 0 when no adjacency graph is bound. With the traffic term ON the value
// is the incrementally maintained accumulator (may differ from a fresh
// canonical summation by float rounding); with the term OFF (weight 0) it
// is summed canonically on demand (Cut reads the accumulator) — a delay-only
// deployment can still *observe* its cross-server traffic.
func (ev *Evaluator) TrafficCut() float64 {
	if ev.trafficOn {
		return ev.trafficCut
	}
	if g := ev.p.Adjacency; g != nil {
		return g.CutWeight(ev.zoneServer)
	}
	return 0
}

// Cut returns the maintained cut in O(1), term on or off: its weight and
// how many edges it holds (what CrossEdges counts by walking the graph).
func (ev *Evaluator) Cut() (weight float64, edges int) { return ev.trafficCut, ev.cutEdges }

// TrafficCost returns the weighted traffic term TrafficWeight × TrafficCut
// as it enters the search objective; 0 when the term is off.
func (ev *Evaluator) TrafficCost() float64 {
	if !ev.trafficOn {
		return 0
	}
	return ev.p.TrafficWeight * ev.trafficCut
}

// CrossEdges returns the number of adjacency edges currently cut (hosted
// apart) and the total edge count. O(edges); a stats read, not a hot path.
func (ev *Evaluator) CrossEdges() (cut, total int) {
	g := ev.p.Adjacency
	if g == nil {
		return 0, 0
	}
	for z := 0; z < g.NumZones(); z++ {
		nbr, _ := g.Row(z)
		hz := ev.zoneServer[z]
		for _, y := range nbr {
			if int32(z) < y {
				total++
				if hz != ev.zoneServer[y] {
					cut++
				}
			}
		}
	}
	return cut, total
}

// applyTrafficMove updates the incremental cut for zone z rehosting from
// old to s, and marks every neighbor's cached traffic entries stale (their
// per-host weight sums include z's host; their client sums do not). Runs
// before zoneServer[z] is rewritten; it reads only the neighbors' hosts,
// which the move does not change.
func (ev *Evaluator) applyTrafficMove(z, old, s int) {
	nbr, wt := ev.p.Adjacency.Row(z)
	for i, y := range nbr {
		switch ev.zoneServer[y] {
		case old:
			ev.trafficCut += wt[i]
			ev.cutEdges++
		case s:
			ev.trafficCut -= wt[i]
			ev.cutEdges--
		}
		ev.touchTraffic(int(y))
	}
}

// refreshTrafficRow fills zone z's cached dTraffic row and clears its
// traffic dirty bit: dt[s] is the weighted traffic delta of rehosting z
// (host old) on s, λ × (weight-to-old-host − weight-to-destination). One
// pass accumulates the zone's edge weight per current host into dt itself,
// a second transforms each slot into λ × (dt[old] − dt[s]) — no scratch,
// and per-slot addition order matches a direct per-destination sum exactly.
func (ev *Evaluator) refreshTrafficRow(z, old int, dt []float64) {
	for s := range dt {
		dt[s] = 0
	}
	nbr, wt := ev.p.Adjacency.Row(z)
	for i, y := range nbr {
		dt[ev.zoneServer[y]] += wt[i]
	}
	lam := ev.p.TrafficWeight
	toOld := dt[old]
	for s := range dt {
		dt[s] = lam * (toOld - dt[s])
	}
	ev.cache.tdirty[z] = false
}

// SetZoneAdjacency installs (or, with w == 0, removes) the interaction
// edge (a, b) with weight w, maintaining the incremental cut and marking
// exactly the two endpoint zones' cached traffic entries stale. Binding the
// first edge of a problem with TrafficWeight > 0 switches the traffic term
// on, which invalidates the whole cache once.
func (ev *Evaluator) SetZoneAdjacency(a, b int, w float64) error {
	return ev.adjacencyEdit(a, b, func(g *interact.Graph) (old, now float64, err error) {
		old, err = g.Set(a, b, w)
		return old, w, err
	})
}

// AddZoneAdjacency accumulates dw > 0 onto edge (a, b) — the observed-
// crossing feedback path of the mobility workload. Same maintenance as
// SetZoneAdjacency.
func (ev *Evaluator) AddZoneAdjacency(a, b int, dw float64) error {
	return ev.adjacencyEdit(a, b, func(g *interact.Graph) (old, now float64, err error) {
		old, now, err = g.Add(a, b, dw)
		return old, now, err
	})
}

// adjacencyEdit applies one edge mutation and repairs derived state.
func (ev *Evaluator) adjacencyEdit(a, b int, edit func(*interact.Graph) (old, now float64, err error)) error {
	p := ev.p
	n := p.NumZones
	if a < 0 || a >= n || b < 0 || b >= n {
		return fmt.Errorf("core: adjacency edge (%d,%d) outside [0,%d)", a, b, n)
	}
	if p.Adjacency == nil {
		p.Adjacency = interact.New(n)
	}
	old, now, err := edit(p.Adjacency)
	if err != nil {
		return err
	}
	if ev.zoneServer[a] != ev.zoneServer[b] {
		ev.trafficCut += now - old
		switch {
		case old == 0 && now != 0:
			ev.cutEdges++
		case old != 0 && now == 0:
			ev.cutEdges--
		}
	}
	wasOn := ev.trafficOn
	ev.trafficOn = p.TrafficOn()
	if ev.trafficOn && !wasOn {
		// The term just switched on: every cached row lacks its dTraffic
		// entries. Recompute the cut canonically and rebuild lazily.
		ev.trafficCut = p.Adjacency.CutWeight(ev.zoneServer)
		ev.tele.invalidations.Add(ev.cache.invalidateAll())
		ev.cache.ensure(n, p.NumServers(), true)
		return nil
	}
	ev.touchTraffic(a)
	ev.touchTraffic(b)
	return nil
}
