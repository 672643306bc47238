package repair

// Reprice resolves the bandwidth half of a membership change into e — the one
// statement of the rule, for the director's single and batch verbs and the
// churn simulator. A client's requirement is a function of its zone's
// population (the quadratic client–server model, ref. [20]), so every zone the
// change leaves at another population is appended to e.Refresh at its final
// population (none when that empties it), in first-touch order, and every
// client entering a zone is priced at its destination's final population: e.RT
// on a single join or move, e.RTs on a batch. from[x] is the dense zone the
// x-th leaving or moving client leaves, to[x] the zone the x-th joining or
// moving client enters; price is one client's Mbps in a zone of pop clients.
func (b *IDBinding) Reprice(e *Event, price func(pop int) float64, from, to []int) {
	var buf [2]zoneDelta
	ds := buf[:0]
	for x := 0; x < len(from) || x < len(to); x++ {
		if x < len(from) {
			ds = touch(ds, from[x], -1)
		}
		if x < len(to) {
			ds = touch(ds, to[x], +1)
		}
	}
	for _, d := range ds {
		if pop := b.ZonePop(d.zone) + d.by; d.by != 0 && pop > 0 {
			e.Refresh = append(e.Refresh, ZoneRT{Zone: b.zones.ids[d.zone], RT: price(pop)})
		}
	}
	for _, z := range to {
		rt := price(b.ZonePop(z) + ds[find(ds, z)].by)
		if e.Op == OpJoin || e.Op == OpMove {
			e.RT = rt
		} else {
			e.RTs = append(e.RTs, rt)
		}
	}
}

// zoneDelta is a zone a membership change touches and its population change.
type zoneDelta struct{ zone, by int }

// touch adds by to zone's entry in ds, appending one on first touch.
func touch(ds []zoneDelta, zone, by int) []zoneDelta {
	if x := find(ds, zone); x >= 0 {
		ds[x].by += by
		return ds
	}
	return append(ds, zoneDelta{zone, by})
}

// find returns the position of zone's entry in ds, or -1.
func find(ds []zoneDelta, zone int) int {
	for x := range ds {
		if ds[x].zone == zone {
			return x
		}
	}
	return -1
}

// ZonePop returns the current population of dense zone z.
func (b *IDBinding) ZonePop(z int) int { return len(b.pl.ev.ZoneClients(z)) }
