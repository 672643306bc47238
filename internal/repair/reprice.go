package repair

// Reprice resolves the bandwidth half of a single membership change into e —
// the one statement of the rule, for the director's and the churn
// simulator's joins, leaves and moves. A client's requirement is a function
// of its zone's population (the quadratic client–server model, ref. [20]),
// so the zone the client leaves is appended to e.Refresh at its shrunk
// population (none when that empties it), then the zone it enters at its
// grown one, and e.RT prices the client at that population. from is the
// dense zone the client leaves and to the one it enters, -1 for none, and
// from != to; price is one client's Mbps in a zone of pop clients.
func (b *IDBinding) Reprice(e *Event, price func(pop int) float64, from, to int) {
	if from >= 0 {
		if pop := b.ZonePop(from) - 1; pop > 0 {
			e.Refresh = append(e.Refresh, ZoneRT{Zone: b.zones.ids[from], RT: price(pop)})
		}
	}
	if to >= 0 {
		e.RT = price(b.ZonePop(to) + 1)
		e.Refresh = append(e.Refresh, ZoneRT{Zone: b.zones.ids[to], RT: e.RT})
	}
}

// ZonePop returns the current population of dense zone z.
func (b *IDBinding) ZonePop(z int) int { return len(b.pl.ev.ZoneClients(z)) }
