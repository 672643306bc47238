package core

import (
	"fmt"
	"math"
	"math/bits"
)

// Audit is the Evaluator's derived-state contract, whose arms and
// tolerances DESIGN.md §7 lists: it rebuilds every maintained structure from
// the bound problem and assignment — the scalars through EvaluateInto, the
// clean candidate-delta rows in a cold reference cache over the same
// *Problem, from the delay rows the late arm reads, each once — and returns
// the first divergence, naming the field (cache.… and late.… qualified), the
// index, the value held and the value wanted. It writes nothing; O(clients ×
// servers), for tests and self-checks.
func (ev *Evaluator) Audit() error {
	p, c := ev.p, &ev.cache
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: audit: p: %w", err)
	}
	a := &Assignment{ZoneServer: ev.zoneServer, ClientContact: ev.contact}
	if err := a.Validate(p); err != nil {
		return fmt.Errorf("core: audit: zoneServer, contact: %w", err)
	}
	if ev.trafficOn != p.TrafficOn() {
		return fmt.Errorf("core: audit: trafficOn = %v, want %v", ev.trafficOn, p.TrafficOn())
	}
	if c.traffic != ev.trafficOn {
		return fmt.Errorf("core: audit: cache.traffic = %v, want %v", c.traffic, ev.trafficOn)
	}
	m, n, k := p.NumServers(), p.NumZones, p.NumClients()
	trafficEntries := len(c.dTraffic) // unread with the traffic term off
	if c.traffic {
		trafficEntries = n * m
	}
	for _, l := range []struct {
		name      string
		got, want int
	}{
		{"delay", len(ev.delay), k}, {"posInZone", len(ev.posInZone), k}, {"zoneMembers", len(ev.zoneMembers), n},
		{"zoneRT", len(ev.zoneRT), n}, {"loads", len(ev.loads), m}, {"cordoned", len(ev.cordoned), m},
		{"cache.servers", c.servers, m}, {"cache.dQoS", len(c.dQoS), n * m}, {"cache.dRap", len(c.dRap), n * m},
		{"cache.dLoad", len(c.dLoad), n * m}, {"cache.dTraffic", len(c.dTraffic), trafficEntries},
		{"cache.dirty", len(c.dirty), n}, {"cache.adjusts", len(c.adjusts), n}, {"cache.tdirty", len(c.tdirty), n},
	} {
		if l.got != l.want {
			return fmt.Errorf("core: audit: %s has %d entries, want %d", l.name, l.got, l.want)
		}
	}

	var ws Workspace
	var want Metrics
	ws.EvaluateInto(p, a, &want)
	if ev.withQoS != want.WithQoS {
		return fmt.Errorf("core: audit: withQoS = %d, want %d", ev.withQoS, want.WithQoS)
	}
	var rapCost, totalLoad float64
	for j, d := range want.Delays {
		if ev.delay[j] != d {
			return fmt.Errorf("core: audit: delay[%d] = %v, want %v", j, ev.delay[j], d)
		}
		if d > p.D { // RAPCost's sum
			rapCost += d - p.D
		}
	}
	held := 0
	for z, members := range ev.zoneMembers {
		for pos, j := range members {
			if j < 0 || j >= k || p.ClientZones[j] != z {
				return fmt.Errorf("core: audit: zoneMembers[%d][%d] = client %d, not a client of zone %d", z, pos, j, z)
			}
			if ev.posInZone[j] != pos {
				return fmt.Errorf("core: audit: posInZone[%d] = %d, want %d (its place in zoneMembers[%d])", j, ev.posInZone[j], pos, z)
			}
			held++
		}
	}
	if held != k {
		return fmt.Errorf("core: audit: zoneMembers hold %d clients, want %d", held, k)
	}
	for _, l := range ws.evLoads {
		totalLoad += l
	}
	trafficCut := TrafficCut(p, a)
	if cut, _ := ev.CrossEdges(); ev.cutEdges != cut {
		return fmt.Errorf("core: audit: cutEdges = %d, want %d", ev.cutEdges, cut)
	}
	for _, s := range []struct {
		name      string
		got, want []float64
	}{
		{"zoneRT", ev.zoneRT, p.ZoneRT()}, {"loads", ev.loads, ws.evLoads}, {"totalLoad", []float64{ev.totalLoad}, []float64{totalLoad}},
		{"rapCost", []float64{ev.rapCost}, []float64{rapCost}}, {"trafficCut", []float64{ev.trafficCut}, []float64{trafficCut}},
	} {
		for i, v := range s.got {
			if !auditClose(v, s.want[i]) {
				return fmt.Errorf("core: audit: %s[%d] = %v, want %v", s.name, i, v, s.want[i])
			}
		}
	}

	// The reference: ev's hosting over a cold cache, which alone it writes;
	// each clean row is summed in it client by client, refreshRow's formula.
	ref := &Evaluator{p: p, zoneServer: ev.zoneServer, trafficOn: ev.trafficOn}
	ref.cache.ensure(n, m, ev.trafficOn)
	rc := &ref.cache
	for z, dirty := range c.dirty {
		if !dirty && ev.trafficOn {
			ref.refreshTrafficRow(z, ev.zoneServer[z], rc.dTraffic[z*m:(z+1)*m])
		}
	}
	err := ev.late.audit(p, func(j int, row []float64) {
		if z := p.ClientZones[j]; !c.dirty[z] {
			rc.addContribution(p, z, row, p.ClientRT[j], 1, standing{ev.zoneServer[z], ev.contact[j], want.Delays[j]})
		}
	})
	if err != nil {
		return err
	}
	entry := func(name string, z, s int, got, want any) error {
		return fmt.Errorf("core: audit: cache.%s[%d][%d] = %v, fresh build %v (cache.dirty[%d] clear, %d adjustments)",
			name, z, s, got, want, z, c.adjusts[z])
	}
	for z, dirty := range c.dirty {
		if dirty {
			continue
		}
		if c.adjusts[z] >= maxRowAdjustments {
			return fmt.Errorf("core: audit: cache.adjusts[%d] = %d on a clean row, want < %d", z, c.adjusts[z], maxRowAdjustments)
		}
		for s, i := 0, z*m; s < m; s, i = s+1, i+1 {
			switch {
			case c.dQoS[i] != rc.dQoS[i]:
				return entry("dQoS", z, s, c.dQoS[i], rc.dQoS[i])
			case !almostEq(c.dRap[i], rc.dRap[i]):
				return entry("dRap", z, s, c.dRap[i], rc.dRap[i])
			case !almostEq(c.dLoad[i], rc.dLoad[i]):
				return entry("dLoad", z, s, c.dLoad[i], rc.dLoad[i])
			case c.traffic && !c.tdirty[z] && c.dTraffic[i] != rc.dTraffic[i]:
				return fmt.Errorf("core: audit: cache.dTraffic[%d][%d] = %v, fresh build %v (cache.tdirty[%d] clear)", z, s, c.dTraffic[i], rc.dTraffic[i], z)
			}
		}
	}
	return nil
}

// auditClose is the bound on an incrementally maintained sum against its
// rebuild.
func auditClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-7*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Audit checks the index's shape, every bit (packed here bit by bit, not
// through lateWord; spare bits zero), the count matrix (rebuilt from the
// bits and ClientZones) and every kept choice (in regret order, topTwo by
// float bits, live bits counting the entries that hold) against p,
// returning the first disagreement; an index that does not describe p
// asserts nothing. Evaluator.Audit's late arm, and the whole audit of an
// index no evaluator keeps (a Cluster's).
func (li *LateIndex) Audit(p *Problem) error { return li.audit(p, nil) }

// audit is Audit handing every client's delay row to visit, when it is not
// nil, as it reads the row — whether or not li describes p — so that
// Evaluator.Audit reads each row once. Safe on a nil index.
func (li *LateIndex) audit(p *Problem, visit func(j int, row []float64)) error {
	m, on := p.NumServers(), li != nil && li.p == p
	if !on && visit == nil {
		return nil
	}
	if on {
		switch {
		case li.m != m:
			return fmt.Errorf("core: audit: late.m = %d, want %d", li.m, m)
		case li.wpc != (m+63)/64:
			return fmt.Errorf("core: audit: late.wpc = %d, want %d", li.wpc, (m+63)/64)
		case len(li.words) != p.NumClients()*li.wpc:
			return fmt.Errorf("core: audit: late.words has %d words, want %d", len(li.words), p.NumClients()*li.wpc)
		case len(li.costs) != p.NumZones*m:
			return fmt.Errorf("core: audit: late.costs has %d counts, want %d", len(li.costs), p.NumZones*m)
		}
	}
	buf := make([]float64, m)
	for j := range p.ClientZones {
		row := p.CSRow(j, buf)
		if on {
			if err := li.auditRow(j, row, p.D); err != nil {
				return err
			}
		}
		if visit != nil {
			visit(j, row)
		}
	}
	if !on {
		return nil
	}
	if err := li.auditCosts(p); err != nil {
		return err
	}
	return li.memo.audit(p, m, buf)
}

// auditCosts is Audit's matrix arm: the counts rebuilt from the bits, which
// the bit arm has checked against the rows, and ClientZones.
func (li *LateIndex) auditCosts(p *Problem) error {
	want := make([]int32, len(li.costs))
	for j, z := range p.ClientZones {
		for w, word := range li.clientWords(j) {
			for ; word != 0; word &= word - 1 {
				want[z*li.m+w*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	for x, c := range li.costs {
		if c != want[x] {
			return fmt.Errorf("core: audit: late.costs[%d][%d] = %d clients of zone %d late at server %d, want %d",
				x/li.m, x%li.m, c, x/li.m, x%li.m, want[x])
		}
	}
	return nil
}

// auditRow is Audit's bit arm for client j, whose delay row is row.
func (li *LateIndex) auditRow(j int, row []float64, bound float64) error {
	for w, word := range li.clientWords(j) {
		var want uint64
		for b, d := range row[w*64 : min(w*64+64, li.m)] {
			var bit uint64
			if isLate(d, bound) {
				bit = 1
			}
			want |= bit << b
		}
		if diff := word ^ want; diff != 0 {
			b := bits.TrailingZeros64(diff)
			if i := w*64 + b; i < li.m {
				return fmt.Errorf("core: audit: late.words: client %d server %d bit = %d, delay %v against bound %v", j, i, word>>b&1, row[i], bound)
			}
			return fmt.Errorf("core: audit: late.words: client %d sets spare bit %d of word %d", j, b, w)
		}
	}
	return nil
}

// audit is LateIndex.Audit's memo arm; buf is a delay-row buffer.
func (cm *choiceMemo) audit(p *Problem, m int, buf []float64) error {
	mu := make([]float64, m)
	held := 0
	for x, c := range cm.entries {
		j, t := int(c.client), int(c.target)
		if x > 0 {
			if b := cm.entries[x-1]; cmpRegret(b.regret, c.regret, int(b.client), j) >= 0 {
				return fmt.Errorf("core: audit: late.memo.entries[%d] is client %d (ρ %v), after client %d (ρ %v): not in regret order",
					x, j, c.regret, b.client, b.regret)
			}
		}
		if !cm.holds(j) {
			continue
		}
		held++
		if j >= p.NumClients() || t < 0 || t >= m {
			return fmt.Errorf("core: audit: late.memo.entries[%d] holds client %d at server %d, out of range", x, j, t)
		}
		refinedDesirability(p, p.CSRow(j, buf), t, mu)
		want := topTwo(j, mu)
		if c.best != want.best || c.second != want.second || math.Float64bits(c.regret) != math.Float64bits(want.regret) {
			return fmt.Errorf("core: audit: late.memo.entries[%d] holds client %d at target %d as (%d, %d, ρ %v), want (%d, %d, ρ %v)",
				x, j, t, c.best, c.second, c.regret, want.best, want.second, want.regret)
		}
	}
	set := 0
	for _, w := range cm.live {
		set += bits.OnesCount64(w)
	}
	if set != held {
		return fmt.Errorf("core: audit: late.memo.live marks %d choices as holding, want %d", set, held)
	}
	return nil
}
