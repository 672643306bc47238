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
// Only each late client's two most desirable servers are kept (topTwo):
// they fix its regret, and where contact servers have forwarding headroom
// one of them takes nearly every client. A client both refuse reads its
// delay row a second time and takes the most desirable server that still
// accepts it (placement.third) — near capacity more than half of the late
// clients, which is why that step is an arg-max and not a sort.
//
// Under a filled Options.Late (a session's solve, a Cluster's repeated
// solve) the first pass reads the late index, and the second reuses the
// choices the index remembers from the last indexed run: only rows written
// since the last solve, or of clients whose target changed, are read —
// plus a third choice's second read.
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

	// Second pass: regret-ordered greedy over the late clients. Forwarding
	// through the target t is the identity — zero extra load, always
	// accepted — so t is the placement's free server and GreC cannot fail.
	w.choices = grow(w.choices, len(late))
	w.mu = grow(w.mu, m)
	w.rows = grow(w.rows, m)
	choices, mu, rowBuf := w.choices, w.mu, w.rows[:m]
	var memo choiceMemo // the index's choices, walked in step with late
	if idx != nil {
		memo = idx.memo
	}
	w.lateRowsRead = 0
	for li, j := range late {
		t := zoneServer[p.ClientZones[j]]
		c, ok := memo.recall(j, t)
		if !ok {
			w.lateRowsRead++
			refinedDesirability(p, p.CSRow(j, rowBuf), t, mu)
			c = topTwo(j, mu)
		}
		choices[li] = c
	}
	if idx != nil {
		idx.remember(p, zoneServer, choices)
	}
	sortChoicesByRegret(choices)

	pm := placement{loads: loads, caps: p.ServerCaps, opt: opt}
	w.lateClients, w.rebuilds = len(late), 0
	for _, c := range choices {
		j := c.item
		t := zoneServer[p.ClientZones[j]]
		need := 2 * p.ClientRT[j]
		s := pm.kept(c, need, t)
		if s < 0 {
			w.rebuilds++
			refinedDesirability(p, p.CSRow(j, rowBuf), t, mu)
			s = pm.third(mu, need, t)
		}
		if s != t {
			loads[s] += need
		}
		contact[j] = s
	}
	return contact, nil
}
