package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// adoptStores are the delay stores an adoption must behave the same on.
var adoptStores = providerKinds

// sparseDelayRow is randomDelayRow with about a third of the entries
// unmeasured, so the coordinate store answers them from its model — the
// reads whose repeatability the kept delay[j] of Adopt leans on.
func sparseDelayRow(rng *xrand.RNG, m int) []float64 {
	row := randomDelayRow(rng, m)
	for i := range row {
		if rng.IntN(3) == 0 {
			row[i] = math.NaN()
		}
	}
	return row
}

// adoptProblem is clientVerbProblem behind the given store, which receives
// every row with a third of its entries unmeasured.
func adoptProblem(seed uint64, store string, traffic bool) *Problem {
	return adoptProblemSized(seed, store, traffic, 8, 90, 3)
}

// adoptProblemSized is adoptProblem with n zones, k clients and one entry in
// sparse unmeasured: few big zones with few late clients are where a
// rehosting passes the cost rule.
func adoptProblemSized(seed uint64, store string, traffic bool, n, k, sparse int) *Problem {
	p := benchSyntheticCAPProvisioned(seed, 5, n, k, 2.5)
	rng := xrand.New(seed + 31)
	for _, row := range p.CS {
		for i := range row {
			if rng.IntN(sparse) == 0 {
				row[i] = math.NaN()
			}
		}
	}
	p = providerProblem(p, store)
	if traffic {
		attachAdjacency(rng.Split(), p, 1.5)
	}
	return p
}

// adoptChurn drives every mutation kind that shapes what an adoption finds:
// client churn and contact switches (adjusted rows), zone moves and the
// per-entry delay overlay (dirty rows), cordon flips, adjacency edits with
// the term on (traffic-dirty rows), and folds that rebuild some of them.
func adoptChurn(ev *Evaluator, rng *xrand.RNG, events int) {
	p := ev.p
	for e := 0; e < events; e++ {
		m, n, k := p.NumServers(), p.NumZones, ev.NumClients()
		switch rng.IntN(10) {
		case 0:
			ev.GreedyContact(ev.AddClient(rng.IntN(n), rng.Uniform(0.05, 0.5), sparseDelayRow(rng, m)))
		case 1:
			if k > 40 {
				ev.RemoveClient(rng.IntN(k))
			}
		case 2:
			j := rng.IntN(k)
			ev.MoveClient(j, rng.IntN(n))
			ev.GreedyContact(j)
		case 3:
			ev.SetClientDelays(rng.IntN(k), sparseDelayRow(rng, m))
		case 4:
			ev.SetClientRT(rng.IntN(k), rng.Uniform(0.05, 0.5))
		case 5:
			ev.ApplyContactSwitch(rng.IntN(k), rng.IntN(m))
		case 6:
			if rng.IntN(3) == 0 {
				ev.ApplyZoneMove(rng.IntN(n), rng.IntN(m))
			}
		case 7:
			ev.SetCordon(rng.IntN(m), rng.IntN(4) == 0)
		case 8:
			if ev.trafficOn {
				if a, b := rng.IntN(n), rng.IntN(n); a != b {
					if err := ev.SetZoneAdjacency(a, b, float64(rng.IntN(3))*rng.Uniform(0.1, 5)); err != nil {
						panic(err)
					}
				}
			} else {
				ev.SetClientServerDelay(rng.IntN(k), rng.IntN(m), rng.Uniform(0, 500))
			}
		default:
			ev.ImproveZone(rng.IntN(n))
		}
	}
}

// resolve runs the two-phase algorithm on ev's problem as it stands, the
// way the planner's full solve does: cordons respected. moved > 0 keeps most
// zones on their host, the case Adopt is for: only the first moved zones
// GreZ would rehost move, besides those on a cordoned server.
func resolve(t *testing.T, ev *Evaluator, rng *xrand.RNG, moved int) *Assignment {
	t.Helper()
	algo := GreZGreC
	if moved > 0 {
		algo.Init = func(rng *xrand.RNG, p *Problem, opt Options) ([]int, error) {
			fresh, err := GreZ(rng, p, opt)
			if err != nil {
				return nil, err
			}
			current, left := append([]int(nil), ev.zoneServer...), moved
			for z, s := range fresh {
				if s != current[z] && (left > 0 || opt.cordoned(current[z])) {
					current[z], left = s, left-1
				}
			}
			return current, nil
		}
	}
	a, err := algo.Solve(rng, ev.p, Options{
		Overflow: SpillLargestResidual,
		Cordoned: append([]bool(nil), ev.cordoned...),
		Late:     ev.late,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// resetTwin returns a second evaluator over a clone of ev's problem with a
// loaded through Reset — what Adopt(a) must leave ev equal to — carrying
// ev's cordons and worker count.
func resetTwin(ev *Evaluator, a *Assignment) *Evaluator {
	twin := &Evaluator{}
	twin.Reset(ev.p.Clone(), a)
	copy(twin.cordoned, ev.cordoned)
	twin.SetWorkers(ev.workers)
	return twin
}

// requireSameState asserts every decision-relevant scalar, the bucket order
// and — through ExportState, when export is set — the snapshot bytes of two
// evaluators are equal. ExportState is a cache barrier on both sides.
func requireSameState(t *testing.T, label string, a, b *Evaluator, export bool) {
	t.Helper()
	requireSameEvaluator(t, a, b)
	if a.trafficOn != b.trafficOn || a.trafficCut != b.trafficCut {
		t.Fatalf("%s: traffic term (%v, %v) vs (%v, %v)", label, a.trafficOn, a.trafficCut, b.trafficOn, b.trafficCut)
	}
	for z, members := range a.zoneMembers {
		for pos, j := range members {
			if a.posInZone[j] != pos || b.posInZone[j] != pos {
				t.Fatalf("%s: zone %d slot %d holds client %d, posInZone %d vs %d", label, z, pos, j, a.posInZone[j], b.posInZone[j])
			}
		}
	}
	if !export {
		return
	}
	ja, err := json.Marshal(a.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("%s: ExportState bytes differ:\n%s\n%s", label, ja, jb)
	}
}

// sameSearch drives an identical fold sequence — seeded repairs, forced
// evacuation rankings, local-search rounds — through a (warm, maintained
// rows) and b (every row cold) and requires the same decision at every step.
func sameSearch(t *testing.T, label string, a, b *Evaluator, rng *xrand.RNG) {
	t.Helper()
	n := a.p.NumZones
	for step := 0; step < 12; step++ {
		z := rng.IntN(n)
		switch step % 3 {
		case 0:
			if got, want := a.ImproveZone(z), b.ImproveZone(z); got != want {
				t.Fatalf("%s step %d: ImproveZone(%d) = %v on kept rows, %v on cold rows", label, step, z, got, want)
			}
		case 1:
			got, want := a.BestZoneHost(z), b.BestZoneHost(z)
			if got != want {
				t.Fatalf("%s step %d: BestZoneHost(%d) = %d on kept rows, %d on cold rows", label, step, z, got, want)
			}
			if got >= 0 && step%2 == 1 {
				a.ApplyZoneMove(z, got)
				b.ApplyZoneMove(z, got)
			}
		default:
			if got, want := a.LocalSearch(2), b.LocalSearch(2); got != want {
				t.Fatalf("%s step %d: LocalSearch = %v on kept rows, %v on cold rows", label, step, got, want)
			}
		}
		sameAssignment(t, fmt.Sprintf("%s step %d", label, step), b.Assignment(), a.Assignment())
	}
}

// roleChangesPerZone counts, per zone next rehosts, the clients whose role the
// adoption changes: direct on the host before and after is one role,
// forwarded through contact c is one role per c.
func roleChangesPerZone(ev *Evaluator, next *Assignment) []int {
	role := func(host, contact int) int {
		if contact == host {
			return -1
		}
		return contact
	}
	changed := make([]int, ev.p.NumZones)
	for j, z := range ev.p.ClientZones {
		if h, t := ev.zoneServer[z], next.ZoneServer[z]; h != t && role(h, ev.contact[j]) != role(t, next.ClientContact[j]) {
			changed[z]++
		}
	}
	return changed
}

// TestAdoptEqualsReset is Adopt's proof obligation: after random churn,
// Adopt(a) on a live evaluator and Reset(p, a) on a twin agree on every
// scalar, delay, contact, host, bucket order and snapshot byte; the rows
// Adopt kept pass Audit, a rehosted zone's row among them with its own
// traffic bit set; exactly the rehosted zones failing the cost rule went
// dirty; the late index is untouched; and the folds that follow decide the same on kept and on cold
// rows — on every delay store, with the traffic term off and on, at workers
// 1 and 4 (trials 4 and 5 on few big zones, where rehostings pass the rule).
func TestAdoptEqualsReset(t *testing.T) {
	for _, store := range adoptStores {
		for _, traffic := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/traffic=%v/workers=%d", store, traffic, workers), func(t *testing.T) {
					kept, rehosted, rebased, switched, adjusted := 0, 0, 0, 0, uint64(0)
					for trial := 0; trial < 6; trial++ {
						rng := xrand.New(uint64(7100 + trial))
						p := adoptProblem(uint64(60+trial), store, traffic)
						if trial >= 4 {
							p = adoptProblemSized(uint64(60+trial), store, traffic, 6, 480, 100)
						}
						a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
						if err != nil {
							t.Fatal(err)
						}
						live := NewEvaluator(p, a)
						live.SetTelemetry(telemetry.NewRegistry())
						live.SetWorkers(workers)
						attachLateIndex(t, live, workers)
						for round := 0; round < 6; round++ {
							label := fmt.Sprintf("trial %d round %d", trial, round)
							if round%3 != 2 {
								syncAllRows(live) // else: whatever the folds rebuilt
							}
							adoptChurn(live, rng, 40)
							next := resolve(t, live, rng.Split(), round%3)
							twin := resetTwin(live, next)

							wasDirty := append([]bool(nil), live.cache.dirty...)
							wantDirty, wantSwitched, wantRebased := wasDirty, 0, make([]bool, len(wasDirty))
							changed := roleChangesPerZone(live, next)
							for z, s := range next.ZoneServer {
								if s != live.zoneServer[z] {
									wantRebased[z] = !wasDirty[z] && !failsCostRule(live, z, changed[z])
									wantDirty[z] = !wantRebased[z]
								}
							}
							for j, c := range next.ClientContact {
								if c != live.contact[j] {
									wantSwitched++
								}
							}
							adj := live.tele.rowAdjusts.Value()
							st := live.Adopt(next)
							adjusted += live.tele.rowAdjusts.Value() - adj

							clean, wantRebasedRows := 0, 0
							for z, d := range live.cache.dirty {
								if d != wantDirty[z] {
									t.Fatalf("%s: zone %d dirty = %v after Adopt, want %v (dirty before, or rehosted against the cost rule)", label, z, d, wantDirty[z])
								}
								if !d {
									clean++
								}
								if wantRebased[z] {
									wantRebasedRows++
									if !live.cache.tdirty[z] {
										t.Fatalf("%s: zone %d rebased with its own traffic bit clear", label, z)
									}
								}
							}
							if st.RowsKept != clean || st.Switched != wantSwitched || st.Rebased != wantRebasedRows {
								t.Fatalf("%s: Adopt reports %+v, the caches hold %d clean rows, %d of them rebased, and %d contacts changed", label, st, clean, wantRebasedRows, wantSwitched)
							}
							kept, rehosted, switched, rebased = kept+st.RowsKept, rehosted+st.Rehosted, switched+st.Switched, rebased+st.Rebased
							audit(t, live)
							requireSameState(t, label, live, twin, round%2 == 1)
							sameSearch(t, label, live, twin, rng.Split())
							requireSameState(t, label+" after the folds", live, twin, true)
						}
					}
					t.Logf("adoptions kept %d rows, rehosted %d zones (%d rebased), switched %d contacts, %d adjustments into kept rows", kept, rehosted, rebased, switched, adjusted)
					if kept == 0 || rehosted == 0 || rebased == 0 || rebased == rehosted || switched == 0 || adjusted == 0 {
						t.Fatalf("adoptions kept %d rows, rehosted %d zones (%d rebased), switched %d contacts, adjusted %d: a leg is untested", kept, rehosted, rebased, switched, adjusted)
					}
				})
			}
		}
	}
}

// TestAdoptEdges pins the corner adoptions.
func TestAdoptEdges(t *testing.T) {
	warm := func(seed uint64) *Evaluator {
		p := adoptProblem(seed, ProviderCoord, true)
		a, err := GreZGreC.Solve(xrand.New(seed), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(p, a)
		ev.SetTelemetry(telemetry.NewRegistry())
		syncAllRows(ev)
		adoptChurn(ev, xrand.New(seed+1), 40)
		syncAllRows(ev)
		return ev
	}

	t.Run("identical assignment", func(t *testing.T) {
		ev := warm(81)
		n := ev.p.NumZones
		adjusts := append([]uint16(nil), ev.cache.adjusts...)
		rows := [][]float64{append([]float64(nil), ev.cache.dRap...), append([]float64(nil), ev.cache.dLoad...), append([]float64(nil), ev.cache.dTraffic...)}
		adj, inval := ev.tele.rowAdjusts.Value(), ev.tele.invalidations.Value()
		st := ev.Adopt(ev.Assignment())
		if st != (Adoption{RowsKept: n}) {
			t.Fatalf("Adopt of the held assignment reports %+v, want %d rows kept and nothing else", st, n)
		}
		if ev.tele.rowAdjusts.Value() != adj || ev.tele.invalidations.Value() != inval {
			t.Fatalf("Adopt of the held assignment adjusted or invalidated a row")
		}
		for z := range adjusts {
			if ev.cache.adjusts[z] != adjusts[z] || ev.cache.dirty[z] || ev.cache.tdirty[z] {
				t.Fatalf("zone %d: adjusts %d -> %d, dirty %v, tdirty %v", z, adjusts[z], ev.cache.adjusts[z], ev.cache.dirty[z], ev.cache.tdirty[z])
			}
		}
		for x, now := range [][]float64{ev.cache.dRap, ev.cache.dLoad, ev.cache.dTraffic} {
			for i := range now {
				if now[i] != rows[x][i] {
					t.Fatalf("row array %d entry %d moved: %v -> %v", x, i, rows[x][i], now[i])
				}
			}
		}
		requireSameState(t, "identical", ev, resetTwin(ev, ev.Assignment()), true)
	})

	t.Run("every zone rehosted", func(t *testing.T) {
		ev := warm(82)
		m := ev.p.NumServers()
		next := ev.Assignment()
		for z, s := range next.ZoneServer {
			next.ZoneServer[z] = (s + 1) % m
		}
		for j, z := range ev.p.ClientZones {
			next.ClientContact[j] = next.ZoneServer[z]
		}
		twin := resetTwin(ev, next)
		n, pass := ev.p.NumZones, 0
		for z, changed := range roleChangesPerZone(ev, next) {
			if !failsCostRule(ev, z, changed) {
				pass++
			}
		}
		inval := ev.tele.invalidations.Value()
		st := ev.Adopt(next)
		if pass == 0 || pass == n || st != (Adoption{Rehosted: n, Switched: st.Switched, RowsKept: pass, Rebased: pass}) {
			t.Fatalf("Adopt reports %+v, want all %d zones rehosted and the %d passing the cost rule rebased", st, n, pass)
		}
		if got := ev.tele.invalidations.Value() - inval; got != uint64(n-pass) {
			t.Fatalf("%d invalidations counted for %d clean rows going dirty", got, n-pass)
		}
		for z, dirty := range ev.cache.dirty {
			if !dirty && !ev.cache.tdirty[z] {
				t.Fatalf("zone %d rebased with its own traffic bit clear", z)
			}
		}
		audit(t, ev)
		requireSameState(t, "all rehosted", ev, twin, false)
		sameSearch(t, "all rehosted", ev, twin, xrand.New(4))
		requireSameState(t, "all rehosted, after the folds", ev, twin, true)
	})

	t.Run("drift rule inside an adoption", func(t *testing.T) {
		ev := warm(83)
		// A client of a clean row, one adjustment short of the rebuild rule.
		j := 0
		z := ev.p.ClientZones[j]
		ev.cache.adjusts[z] = maxRowAdjustments - 1
		next := ev.Assignment()
		next.ClientContact[j] = (next.ClientContact[j] + 1) % ev.p.NumServers()
		twin := resetTwin(ev, next)
		adj := ev.tele.rowAdjusts.Value()
		st := ev.Adopt(next)
		if !ev.cache.dirty[z] || st.RowsKept != ev.p.NumZones-1 || st.Switched != 1 || st.Rehosted != 0 {
			t.Fatalf("zone %d dirty = %v, Adopt reports %+v: the retraction should have crossed the drift rule", z, ev.cache.dirty[z], st)
		}
		if got := ev.tele.rowAdjusts.Value() - adj; got != 1 {
			t.Fatalf("%d adjustments applied, want the retraction alone (the re-add meets a dirty row)", got)
		}
		audit(t, ev)
		requireSameState(t, "drift", ev, twin, false)
		sameSearch(t, "drift", ev, twin, xrand.New(5))
	})

	t.Run("cache never sized", func(t *testing.T) {
		ev := warm(84)
		ev.cache = moveCache{}
		next := resolve(t, ev, xrand.New(9), 1)
		twin := resetTwin(ev, next)
		if st := ev.Adopt(next); st.RowsKept != 0 {
			t.Fatalf("Adopt on an unsized cache reports %+v", st)
		}
		requireSameState(t, "unsized", ev, twin, false)
		sameSearch(t, "unsized", ev, twin, xrand.New(6))
	})
}

// TestWholeCacheInvalidationsAreCounted: the barriers that dirty every row
// count each clean row they dirty — once — a zone move counts its row as
// rebased or as invalidated, and an adoption reports the rows it kept.
func TestWholeCacheInvalidationsAreCounted(t *testing.T) {
	p := adoptProblem(91, ProviderSharedRow, false)
	a, err := GreZGreC.Solve(xrand.New(91), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(p, a)
	ev.SetTelemetry(telemetry.NewRegistry())
	n := uint64(p.NumZones)
	syncAllRows(ev)
	ev.ApplyZoneMove(0, (ev.ZoneHost(0)+1)%p.NumServers())
	if inv, reb := ev.tele.invalidations.Value(), ev.tele.rowsRebased.Value(); inv+reb != 1 {
		t.Fatalf("one zone move counted %d invalidations and %d rebased rows", inv, reb)
	}
	ev.ExportState()
	if got := ev.tele.invalidations.Value(); got != n {
		t.Fatalf("ExportState over %d rows, the moved zone's clean or dirty: counter at %d, want %d", n, got, n)
	}
	ev.ExportState()
	if got := ev.tele.invalidations.Value(); got != n {
		t.Fatalf("a barrier over dirty rows moved the counter to %d", got)
	}
	syncAllRows(ev)
	ev.AddServer(50, make([]float64, p.NumServers()), nil)
	if got := ev.tele.invalidations.Value(); got != 2*n {
		t.Fatalf("AddServer over %d clean rows: counter at %d, want %d", n, got, 2*n)
	}
	syncAllRows(ev)
	ev.Reset(p, ev.Assignment())
	if got := ev.tele.invalidations.Value(); got != 3*n {
		t.Fatalf("Reset over %d clean rows: counter at %d, want %d", n, got, 3*n)
	}
	syncAllRows(ev)
	if st := ev.Adopt(ev.Assignment()); uint64(st.RowsKept) != n || ev.tele.rowsKept.Value() != n || ev.tele.invalidations.Value() != 3*n {
		t.Fatalf("Adopt kept %d of %d rows; rows_kept counter %d, invalidations %d", st.RowsKept, n, ev.tele.rowsKept.Value(), ev.tele.invalidations.Value())
	}
}
