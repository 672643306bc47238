package core

import (
	"math"
	"testing"

	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// rowDrift returns the largest deviation of a clean row's float entries from
// a fresh build, relative to max(1, |entry|) — the drift statistic of the
// long-churn test; Audit bounds it by almostEq's 1e-9.
func rowDrift(ev *Evaluator) float64 {
	fresh := NewEvaluator(ev.p, ev.Assignment())
	m := ev.cache.servers
	scratch := make([]float64, m)
	worst := 0.0
	for z, dirty := range ev.cache.dirty {
		if dirty {
			continue
		}
		fresh.refreshRow(z, scratch)
		for i := z * m; i < (z+1)*m; i++ {
			for _, d := range [][2]float64{{ev.cache.dRap[i], fresh.cache.dRap[i]}, {ev.cache.dLoad[i], fresh.cache.dLoad[i]}} {
				worst = math.Max(worst, math.Abs(d[0]-d[1])/math.Max(1, math.Max(math.Abs(d[0]), math.Abs(d[1]))))
			}
		}
	}
	return worst
}

// syncAllRows brings every row up to date, like a local-search scan that
// finds nothing to move.
func syncAllRows(ev *Evaluator) {
	scratch := make([]float64, ev.cache.servers)
	for z := 0; z < ev.p.NumZones; z++ {
		ev.syncRow(z, scratch)
	}
}

// clientVerbProblem is a fixed small instance with enough clients per zone
// for every verb to have something to act on.
func clientVerbProblem(t *testing.T, seed uint64) (*Problem, *Assignment) {
	t.Helper()
	p := benchSyntheticCAP(seed, 5, 6, 60).Clone()
	a, err := GreZGreC.Solve(xrand.New(seed), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	return p, a
}

// failsCostRule reports whether rehosting zone z with changed of its clients
// changing role dirties the row instead of rebasing it.
func failsCostRule(ev *Evaluator, z, changed int) bool {
	return rebaseCost*changed > len(ev.zoneMembers[z])
}

// forwardedThrough counts zone z's clients whose contact is server s and not
// the zone's host — the clients a move of z to s changes the role of.
func forwardedThrough(ev *Evaluator, z, s int) (n int) {
	for _, j := range ev.zoneMembers[z] {
		if ev.contact[j] == s && s != ev.zoneServer[z] {
			n++
		}
	}
	return n
}

// TestClientVerbsKeepRowsClean pins the tentpole's invariant: a join, a
// leave, a move, a delay refresh, a bandwidth change, a contact switch and
// the zone's own rehosting each leave the rows of the zones they touch
// CLEAN — adjusted or rebased in place and equal to a from-scratch build —
// and only the bulk delay column, or a rehosting that fails the cost rule,
// dirties one.
func TestClientVerbsKeepRowsClean(t *testing.T) {
	p, a := clientVerbProblem(t, 5)
	ev := NewEvaluator(p, a)
	rng := xrand.New(77)
	m := p.NumServers()
	clean := func(what string, zones ...int) {
		t.Helper()
		for _, z := range zones {
			if ev.cache.dirty[z] {
				t.Fatalf("%s left zone %d's row dirty", what, z)
			}
		}
		audit(t, ev)
	}
	rebased := map[bool]int{} // zone moves by whether the cost rule dirtied the row
	for round := 0; round < 50; round++ {
		syncAllRows(ev)
		k := ev.NumClients()

		z := rng.IntN(p.NumZones)
		j := ev.AddClient(z, rng.Uniform(0.05, 0.5), randomDelayRow(rng, m))
		clean("AddClient", z)

		ev.ApplyContactSwitch(j, rng.IntN(m))
		clean("ApplyContactSwitch", z)

		ev.SetClientRT(j, rng.Uniform(0.05, 0.5))
		clean("SetClientRT", z)

		ev.SetClientDelays(j, randomDelayRow(rng, m))
		clean("SetClientDelays", z)

		to := rng.IntN(p.NumZones)
		ev.MoveClient(j, to)
		clean("MoveClient", z, to)

		ev.GreedyContact(j)
		clean("GreedyContact", to)

		victim := rng.IntN(k)
		vz := p.ClientZones[victim]
		ev.RemoveClient(victim)
		clean("RemoveClient", vz)

		ev.SetCordon(rng.IntN(m), rng.IntN(2) == 0)
		clean("SetCordon")

		// The zone's own rehosting rebases its row — clean, its own traffic
		// bit set — unless the cost rule says rebuild; nobody else's row
		// moves. The bulk column overlay does dirty a row.
		mz := rng.IntN(p.NumZones)
		dest := (ev.ZoneHost(mz) + 1 + rng.IntN(m-1)) % m
		wantDirty := failsCostRule(ev, mz, forwardedThrough(ev, mz, dest))
		ev.ApplyZoneMove(mz, dest)
		for y := 0; y < p.NumZones; y++ {
			if ev.cache.dirty[y] != (y == mz && wantDirty) {
				t.Fatalf("ApplyZoneMove(%d): zone %d dirty = %v", mz, y, ev.cache.dirty[y])
			}
		}
		if !wantDirty && !ev.cache.tdirty[mz] {
			t.Fatalf("ApplyZoneMove(%d) rebased the row and left its traffic bit clear", mz)
		}
		rebased[wantDirty]++
		audit(t, ev)
		syncAllRows(ev)
		c := rng.IntN(ev.NumClients())
		ev.SetClientServerDelay(c, rng.IntN(m), rng.Uniform(0, 500))
		if !ev.cache.dirty[p.ClientZones[c]] {
			t.Fatalf("SetClientServerDelay left zone %d's row clean", p.ClientZones[c])
		}
		audit(t, ev)
	}
	if rebased[false] == 0 || rebased[true] == 0 {
		t.Fatalf("zone moves rebased %d rows and dirtied %d: a side of the cost rule is untested", rebased[false], rebased[true])
	}
}

// TestTrafficDirtyBitSparesClientSums: with the traffic term on, an
// adjacency edit, a neighbour's rehosting and the zone's own (a rebase) mark
// only the traffic entries of the affected rows stale — the client sums stay
// clean and equal to a fresh build — and the next fold re-derives dTraffic
// exactly.
func TestTrafficDirtyBitSparesClientSums(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		p, a := clientVerbProblem(t, 20+seed)
		attachAdjacency(xrand.New(seed+900), p, 1.5)
		ev := NewEvaluator(p, a)
		rng := xrand.New(seed)
		n, m := p.NumZones, p.NumServers()
		for step := 0; step < 200; step++ {
			syncAllRows(ev)
			switch rng.IntN(4) {
			case 0, 1:
				x, y := rng.IntN(n), rng.IntN(n)
				if x == y {
					continue
				}
				var err error
				if rng.IntN(2) == 0 {
					err = ev.SetZoneAdjacency(x, y, rng.Uniform(0, 3))
				} else {
					err = ev.AddZoneAdjacency(x, y, rng.Uniform(0.1, 1))
				}
				if err != nil {
					t.Fatal(err)
				}
				for z := 0; z < n; z++ {
					if ev.cache.dirty[z] || ev.cache.tdirty[z] != (z == x || z == y) {
						t.Fatalf("seed %d step %d: edit (%d,%d) left zone %d dirty=%v tdirty=%v",
							seed, step, x, y, z, ev.cache.dirty[z], ev.cache.tdirty[z])
					}
				}
			case 2:
				z := rng.IntN(n)
				dest := (ev.ZoneHost(z) + 1 + rng.IntN(m-1)) % m
				nbr, _ := p.Adjacency.Row(z)
				wantDirty := failsCostRule(ev, z, forwardedThrough(ev, z, dest))
				ev.ApplyZoneMove(z, dest)
				isNbr := make([]bool, n)
				for _, y := range nbr {
					isNbr[y] = true
				}
				isNbr[z] = !wantDirty // a rebased row's own traffic bit
				for y := 0; y < n; y++ {
					if ev.cache.dirty[y] != (y == z && wantDirty) || (!ev.cache.dirty[y] && ev.cache.tdirty[y] != isNbr[y]) {
						t.Fatalf("seed %d step %d: move of zone %d left zone %d dirty=%v tdirty=%v (neighbour %v)",
							seed, step, z, y, ev.cache.dirty[y], ev.cache.tdirty[y], isNbr[y])
					}
				}
			default:
				if k := ev.NumClients(); k > 0 {
					ev.MoveClient(rng.IntN(k), rng.IntN(n))
				}
			}
			audit(t, ev)
			syncAllRows(ev)
			for z := 0; z < n; z++ {
				if ev.cache.tdirty[z] {
					t.Fatalf("seed %d step %d: zone %d traffic entries still stale after a fold", seed, step, z)
				}
			}
			audit(t, ev)
		}
	}
}

// TestRowDriftBoundedUnderLongChurn runs a quarter of a million client
// events against a small instance with no zone move — so nothing but the
// rebuild-after-N rule ever rebuilds a row — folding the touched rows after
// every event like the repair path does. It asserts that the maintained
// rows stay within tolerance of a fresh build throughout, that no clean row
// ever carries maxRowAdjustments adjustments, and that the rule actually
// fired (the only possible source of invalidations here).
func TestRowDriftBoundedUnderLongChurn(t *testing.T) {
	events := 250_000
	if testing.Short() {
		events = 60_000
	}
	p, a := clientVerbProblem(t, 9)
	ev := NewEvaluator(p, a)
	ev.SetTelemetry(telemetry.NewRegistry())
	rng := xrand.New(2024)
	n, m := p.NumZones, p.NumServers()
	syncAllRows(ev)
	scratch := make([]float64, m)
	rebuilds, worst := 0, 0.0
	for e := 0; e < events; e++ {
		k := ev.NumClients()
		switch op := rng.IntN(6); {
		case op == 0 && k < 120 || k < 20:
			ev.GreedyContact(ev.AddClient(rng.IntN(n), rng.Uniform(0.05, 0.5), randomDelayRow(rng, m)))
		case op == 1:
			ev.RemoveClient(rng.IntN(k))
		case op == 2:
			j := rng.IntN(k)
			ev.MoveClient(j, rng.IntN(n))
			ev.GreedyContact(j)
		case op == 3:
			j := rng.IntN(k)
			ev.SetClientDelays(j, randomDelayRow(rng, m))
			ev.GreedyContact(j)
		case op == 4:
			ev.SetClientRT(rng.IntN(k), rng.Uniform(0.05, 0.5))
		default:
			ev.ApplyContactSwitch(rng.IntN(k), rng.IntN(m))
		}
		for z := 0; z < n; z++ {
			if ev.cache.dirty[z] {
				rebuilds++
				ev.syncRow(z, scratch)
			}
		}
		if e%997 == 0 || e == events-1 {
			audit(t, ev)
			worst = math.Max(worst, rowDrift(ev))
		}
	}
	invalidations := int(ev.tele.invalidations.Value())
	adjustments := ev.tele.rowAdjusts.Value()
	if rebuilds == 0 || invalidations != rebuilds {
		t.Fatalf("rebuild-after-%d rule: %d rebuilds, %d invalidations over %d events (%d adjustments)",
			maxRowAdjustments, rebuilds, invalidations, events, adjustments)
	}
	if min := uint64(rebuilds) * maxRowAdjustments / 2; adjustments < min {
		t.Fatalf("%d rebuilds after only %d O(servers) adjustments", rebuilds, adjustments)
	}
	t.Logf("%d events: %d adjustments, %d drift rebuilds, worst deviation from a fresh row %.3g (tolerance 1e-9)",
		events, adjustments, rebuilds, worst)
}

// TestExportStateIsCacheBarrier: after ExportState on a warm evaluator and
// RestoreState into a second one, identical mutations — client churn that
// adjusts rows in place, folds that rebuild them — leave the two caches
// EQUAL, bit for bit: same dirty bits, same adjustment counts, same
// entries. Without the barrier the live side's warm, already adjusted rows
// would meet freshly built ones and agree only within rounding.
func TestExportStateIsCacheBarrier(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := xrand.New(uint64(5100 + trial))
		p, a := clientVerbProblem(t, uint64(40+trial))
		if trial%2 == 1 {
			attachAdjacency(rng.Split(), p, 1.5)
		}
		live := NewEvaluator(p, a)
		// Warm the live cache: every row built, then adjusted by churn.
		syncAllRows(live)
		churnEvaluator(t, live, rng.Split(), 150)

		st := live.ExportState()
		restored := NewEvaluator(live.p.Clone(), live.Assignment())
		if err := restored.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		seed := rng.Split().Seed()
		for leg := 0; leg < 6; leg++ {
			churnEvaluator(t, live, xrand.New(seed+uint64(leg)), 80)
			churnEvaluator(t, restored, xrand.New(seed+uint64(leg)), 80)
			if leg%2 == 1 {
				live.bestZoneMove()
				restored.bestZoneMove()
			}
			requireSameEvaluator(t, live, restored)
			requireSameCache(t, live, restored)
		}
	}
}

// requireSameCache asserts two evaluators' candidate-delta caches are
// bit-identical: bookkeeping and, for every clean row, every entry.
func requireSameCache(t *testing.T, a, b *Evaluator) {
	t.Helper()
	m := a.cache.servers
	if m != b.cache.servers || len(a.cache.dirty) != len(b.cache.dirty) {
		t.Fatalf("cache shapes differ: %d×%d vs %d×%d", len(a.cache.dirty), m, len(b.cache.dirty), b.cache.servers)
	}
	for z := range a.cache.dirty {
		if a.cache.dirty[z] != b.cache.dirty[z] {
			t.Fatalf("zone %d dirty bit differs: %v vs %v", z, a.cache.dirty[z], b.cache.dirty[z])
		}
		if a.cache.dirty[z] {
			continue
		}
		if a.cache.adjusts[z] != b.cache.adjusts[z] {
			t.Fatalf("zone %d adjustment count differs: %d vs %d", z, a.cache.adjusts[z], b.cache.adjusts[z])
		}
		if a.trafficOn && a.cache.tdirty[z] != b.cache.tdirty[z] {
			t.Fatalf("zone %d traffic dirty bit differs: %v vs %v", z, a.cache.tdirty[z], b.cache.tdirty[z])
		}
		for i := z * m; i < (z+1)*m; i++ {
			if a.cache.dQoS[i] != b.cache.dQoS[i] || a.cache.dRap[i] != b.cache.dRap[i] || a.cache.dLoad[i] != b.cache.dLoad[i] {
				t.Fatalf("zone %d server %d: (dQoS, dRap, dLoad) = (%d, %v, %v) vs (%d, %v, %v)", z, i-z*m,
					a.cache.dQoS[i], a.cache.dRap[i], a.cache.dLoad[i], b.cache.dQoS[i], b.cache.dRap[i], b.cache.dLoad[i])
			}
			if a.trafficOn && !a.cache.tdirty[z] && a.cache.dTraffic[i] != b.cache.dTraffic[i] {
				t.Fatalf("zone %d server %d: dTraffic %v vs %v", z, i-z*m, a.cache.dTraffic[i], b.cache.dTraffic[i])
			}
		}
	}
}

// TestSeededFoldsAreCounted: the single-zone folds of the repair path show
// up in the cache counters — a rebuild on first touch, hits afterwards
// while client churn adjusts the row in place — and never in the local
// search's scan-round counter.
func TestSeededFoldsAreCounted(t *testing.T) {
	// Provisioned at 3× demand, so destinations have room: on a saturated
	// fleet a dirty row with nowhere to go is left unbuilt and uncounted.
	p := benchSyntheticCAPProvisioned(3, 5, 6, 60, 3).Clone()
	a, err := GreZGreC.Solve(xrand.New(3), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(p, a)
	ev.SetTelemetry(telemetry.NewRegistry())
	rng := xrand.New(1)
	m := p.NumServers()
	moved := 0
	const events = 40
	for e := 0; e < events; e++ {
		ev.AddClient(0, rng.Uniform(0.05, 0.5), randomDelayRow(rng, m))
		if ev.ImproveZone(0) {
			moved++
		}
	}
	hits, refreshes := ev.tele.rowHits.Value(), ev.tele.rowRefreshes.Value()
	if hits+refreshes != events {
		t.Fatalf("%d ImproveZone folds counted as %d hits + %d refreshes", events, hits, refreshes)
	}
	if want := uint64(1 + moved); refreshes > want {
		t.Fatalf("%d row rebuilds for one cold start and %d handoffs", refreshes, moved)
	}
	if got := ev.tele.rowAdjusts.Value(); got == 0 || got > events {
		t.Fatalf("%d adjustments counted for %d joins", got, events)
	}
	if got := ev.tele.scanRounds.Value(); got != 0 {
		t.Fatalf("seeded folds counted %d local-search scan rounds", got)
	}
	before := ev.tele.rowHits.Value() + ev.tele.rowRefreshes.Value()
	ev.BestZoneHost(1)
	if got := ev.tele.rowHits.Value() + ev.tele.rowRefreshes.Value(); got != before+1 {
		t.Fatalf("BestZoneHost fold not counted: %d -> %d", before, got)
	}
}

// TestAddContributionSigns pins the one row-contribution formula for each
// kind of standing a client can have — following the host or forwarded
// through another contact, inside or outside the delay bound: a +1 pass on
// a zeroed row writes, per destination, the QoS and excess-delay change of
// moving the zone there (and the forwarding load the contact stops
// carrying), leaves the host's own entry zero, and a −1 pass writes the
// exact negation of the +1 pass.
func TestAddContributionSigns(t *testing.T) {
	const m, host, rt = 4, 0, 0.25
	p := &Problem{D: 100, SS: [][]float64{
		{0, 70, 60, 80},
		{70, 0, 90, 50},
		{60, 90, 0, 20},
		{80, 50, 20, 0},
	}}
	cs := []float64{40, 130, 30, 95}
	for _, tc := range []struct {
		name string
		st   standing
	}{
		{"follower in QoS", standing{host, host, 40}},
		{"follower out of QoS", standing{host, host, 140}},
		{"forwarded in QoS", standing{host, 2, 90}},
		{"forwarded out of QoS", standing{host, 2, 130}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pass := func(sign int32) *moveCache {
				c := &moveCache{servers: m, dQoS: make([]int32, m), dRap: make([]float64, m), dLoad: make([]float64, m)}
				c.addContribution(p, 0, cs, rt, sign, tc.st)
				return c
			}
			plus, minus := pass(1), pass(-1)
			inQoS := tc.st.delay <= p.D
			for s := 0; s < m; s++ {
				var wantQoS int32
				var wantRap, wantLoad float64
				if s != host {
					nd := cs[tc.st.contact] + p.SS[tc.st.contact][s]
					if tc.st.contact == host || s == tc.st.contact {
						nd = cs[s]
					}
					if s == tc.st.contact {
						wantLoad = -2 * rt
					}
					if inQoS {
						wantQoS--
					} else {
						wantRap -= tc.st.delay - p.D
					}
					if nd <= p.D {
						wantQoS++
					} else {
						wantRap += nd - p.D
					}
				}
				if plus.dQoS[s] != wantQoS || plus.dRap[s] != wantRap || plus.dLoad[s] != wantLoad {
					t.Errorf("+1 pass, server %d: (dQoS, dRap, dLoad) = (%d, %v, %v), want (%d, %v, %v)",
						s, plus.dQoS[s], plus.dRap[s], plus.dLoad[s], wantQoS, wantRap, wantLoad)
				}
				if minus.dQoS[s] != -plus.dQoS[s] || minus.dRap[s] != -plus.dRap[s] || minus.dLoad[s] != -plus.dLoad[s] {
					t.Errorf("−1 pass, server %d: (dQoS, dRap, dLoad) = (%d, %v, %v), not the negation of (%d, %v, %v)",
						s, minus.dQoS[s], minus.dRap[s], minus.dLoad[s], plus.dQoS[s], plus.dRap[s], plus.dLoad[s])
				}
			}
		})
	}
}
