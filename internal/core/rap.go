package core

import (
	"dvecap/internal/xrand"
)

// RAPFunc assigns each client a contact server (the refined assignment
// phase), given the zone → server map produced by the initial phase.
type RAPFunc func(rng *xrand.RNG, p *Problem, zoneServer []int, opt Options) ([]int, error)

// VirC is the paper's virtual-location-based refined assignment: every
// client simply connects to the server hosting its zone (contact = target).
// It adds no inter-server forwarding load and never changes the QoS outcome
// of the initial phase.
func VirC(_ *xrand.RNG, p *Problem, zoneServer []int, _ Options) ([]int, error) {
	contact := make([]int, p.NumClients())
	for j, z := range p.ClientZones {
		contact[j] = zoneServer[z]
	}
	return contact, nil
}

// GreC is the paper's greedy refined assignment (Fig. 3). Clients already
// within the delay bound to their target keep the target as contact.
// The rest are scored against every candidate contact server with the cost
// of Equation (8) — how far d(client, contact) + d(contact, target)
// overshoots the bound — and are placed in descending-regret order on the
// most desirable server whose residual capacity fits the 2×RT forwarding
// load. The target server itself is always a fallback candidate (zero
// extra load), so GreC cannot fail.
//
// Only each late client's two most desirable servers are kept: they fix
// its regret, and where contact servers have forwarding headroom one of
// them takes nearly every client. A client both refuse gets its full
// preference order rebuilt from a second read of its delay row; the order
// is total (preferenceOrder), so the walk continues at the third entry
// exactly where a fully sorted list would.
//
// Under Options.Late (a session's re-solve) the first pass reads the late
// index and only the late clients' delay rows are ever touched.
//
// Loads start at the initial phase's zone loads, matching the RAP
// constraint (10): contact load fits within C_{s_i} − R_{s_i}.
func GreC(_ *xrand.RNG, p *Problem, zoneServer []int, opt Options) ([]int, error) {
	m := p.NumServers()
	w := opt.scratch()
	contact := make([]int, p.NumClients())
	zoneRT := w.zoneRTs(p)
	loads := w.zeroLoads(m)
	for z, s := range zoneServer {
		loads[s] += zoneRT[z]
	}

	// First pass: clients whose direct delay to the target meets the bound
	// connect straight to it (no forwarding, no extra load). A filled late
	// index answers that with bit (j, target) instead of a delay read.
	idx := opt.Late
	if !idx.ValidFor(p) {
		idx = nil
	}
	w.late = grow(w.late, p.NumClients())[:0]
	late := w.late // the paper's list L_E
	for j, z := range p.ClientZones {
		t := zoneServer[z]
		var inBound bool
		if idx != nil {
			inBound = !idx.has(j, t)
		} else {
			inBound = p.CSAt(j, t) <= p.D
		}
		if inBound {
			contact[j] = t
		} else {
			late = append(late, j)
		}
	}

	// Second pass: regret-ordered greedy over the late clients.
	w.choices = grow(w.choices, len(late))
	w.mu = grow(w.mu, m)
	w.rows = grow(w.rows, m)
	w.order = grow(w.order, m)
	choices, mu, rowBuf := w.choices, w.mu, w.rows[:m]
	for li, j := range late {
		t := zoneServer[p.ClientZones[j]]
		refinedDesirability(p, p.CSRow(j, rowBuf), t, mu)
		best, second := 0, -1
		for i := 1; i < m; i++ {
			switch {
			case mu[i] > mu[best]:
				best, second = i, best
			case second < 0 || mu[i] > mu[second]:
				second = i
			}
		}
		c := contactChoice{client: j, best: int32(best), second: int32(second)}
		if second >= 0 {
			// The paper's ρ: the gap between the best and second-best
			// desirability — the "regret" of not taking the best server.
			c.regret = mu[best] - mu[second]
		}
		choices[li] = c
	}
	sortChoicesByRegret(choices)

	// accepts places client j on contact server s if s takes it. Forwarding
	// through the target t is the identity: zero extra load, always
	// feasible.
	accepts := func(j, t, s int) bool {
		if s != t {
			if opt.cordoned(s) || !almostLE(loads[s]+2*p.ClientRT[j], p.ServerCaps[s]) {
				return false
			}
			loads[s] += 2 * p.ClientRT[j]
		}
		contact[j] = s
		return true
	}
	w.lateClients, w.rebuilds = len(late), 0
	for _, c := range choices {
		j := c.client
		t := zoneServer[p.ClientZones[j]]
		// With a single server best is the target, so second = -1 is never
		// tried.
		if accepts(j, t, int(c.best)) || accepts(j, t, int(c.second)) {
			continue
		}
		w.rebuilds++
		refinedDesirability(p, p.CSRow(j, rowBuf), t, mu)
		preferenceOrder(mu, w.order)
		// t is neither best nor second, so it is among the rest and ends
		// the walk at the latest.
		for _, s := range w.order[2:] {
			if accepts(j, t, s) {
				break
			}
		}
	}
	return contact, nil
}
