package core

import (
	"fmt"
	"testing"

	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// rebaseCase shapes one rehosting of zone 0 from server 0 (h) to server 1
// (t); server 2 (x) is a contact that is neither. cur and next give the
// contact of the zone's i-th client (of n) before and after.
type rebaseCase struct {
	name      string
	cur, next func(i, n int) int
	empty     bool                // rehost an empty zone instead of zone 0
	prepare   func(ev *Evaluator) // on the warm evaluator, before the rehosting
	move      bool                // next is what ApplyZoneMove(0, t) leaves: drive that verb too
	wantDirty bool
	adjusts   int // O(servers) adjustments the rehosting applies; -1: not pinned
}

const (
	rebaseH = 0
	rebaseT = 1
	rebaseX = 2
)

// roleChangers returns a contact function under which the first k clients
// are forwarded through the new host — each a role change of the move — and
// the rest direct on the old one.
func roleChangers(k func(n int) int) func(i, n int) int {
	return func(i, n int) int {
		if i < k(n) {
			return rebaseT
		}
		return rebaseH
	}
}

func constContact(c int) func(i, n int) int { return func(int, int) int { return c } }

var rebaseCases = []rebaseCase{
	{
		name: "contact is the new host: forwarded to direct",
		cur:  roleChangers(func(int) int { return 2 }), next: constContact(rebaseT),
		move: true, adjusts: 4,
	},
	{
		name: "contact is the old host afterwards: direct to forwarded through it",
		cur:  constContact(rebaseH),
		next: func(i, n int) int {
			if i < 2 {
				return rebaseH
			}
			return rebaseT
		},
		adjusts: 4,
	},
	{
		name: "every client forwarded through a third server",
		cur:  constContact(rebaseX), next: constContact(rebaseX),
		move: true, adjusts: 0,
	},
	{
		name: "every client direct",
		cur:  constContact(rebaseH), next: constContact(rebaseT),
		move: true, adjusts: 0,
	},
	{
		name: "forwarded through another contact afterwards",
		cur:  constContact(rebaseX),
		next: func(i, n int) int {
			if i == 0 {
				return 3
			}
			return rebaseX
		},
		adjusts: 2,
	},
	{
		name: "empty zone", empty: true,
		cur: constContact(rebaseH), next: constContact(rebaseH),
		move: true, adjusts: 0,
	},
	{
		name: "row already dirty",
		cur:  roleChangers(func(int) int { return 1 }), next: constContact(rebaseT),
		prepare: func(ev *Evaluator) { ev.touchZone(0) },
		move:    true, wantDirty: true, adjusts: 0,
	},
	{
		name: "retraction crosses the drift rule",
		cur:  roleChangers(func(int) int { return 2 }), next: constContact(rebaseT),
		prepare: func(ev *Evaluator) { ev.cache.adjusts[0] = maxRowAdjustments - 1 },
		move:    true, wantDirty: true, adjusts: 1, // the later re-add and pair meet a dirty row
	},
	{
		name: "re-add crosses the drift rule",
		cur:  roleChangers(func(int) int { return 2 }), next: constContact(rebaseT),
		prepare: func(ev *Evaluator) { ev.cache.adjusts[0] = maxRowAdjustments - 2 },
		move:    true, wantDirty: true, adjusts: 2,
	},
	{
		name: "rebase itself crosses the drift rule",
		cur:  roleChangers(func(int) int { return 1 }), next: constContact(rebaseT),
		prepare: func(ev *Evaluator) { ev.cache.adjusts[0] = maxRowAdjustments - 3 },
		move:    true, wantDirty: true, adjusts: 2,
	},
	{
		name: "one adjustment short of the drift rule",
		cur:  roleChangers(func(int) int { return 1 }), next: constContact(rebaseT),
		prepare: func(ev *Evaluator) { ev.cache.adjusts[0] = maxRowAdjustments - 4 },
		move:    true, adjusts: 2,
	},
	{
		name: "cost rule, the last rehosting it rebases",
		cur:  roleChangers(func(n int) int { return n / rebaseCost }), next: constContact(rebaseT),
		move: true, adjusts: -1,
	},
	{
		name: "cost rule, the first rehosting it rebuilds",
		cur:  roleChangers(func(n int) int { return n/rebaseCost + 1 }), next: constContact(rebaseT),
		move: true, wantDirty: true, adjusts: 0,
	},
}

// TestRebaseCorners drives each corner of a zone's rehosting through both
// verbs — Adopt, and ApplyZoneMove where the move produces the same
// assignment — on every delay store, with the traffic term off and on, at
// workers 1 and 4, and requires: the row clean or dirty as the case says
// and counted so; a clean one equal to a fresh build with its own traffic
// bit set, its dTraffic exact after the next fold; the adjustment count
// pinned; Adopt's scalars those of a Reset twin; and the folds that follow
// deciding the same as on cold rows.
func TestRebaseCorners(t *testing.T) {
	for _, store := range adoptStores {
		for _, traffic := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				for ci, tc := range rebaseCases {
					for _, verb := range []string{"adopt", "move"} {
						if verb == "move" && !tc.move {
							continue
						}
						name := fmt.Sprintf("%s/traffic=%v/workers=%d/%s/%s", store, traffic, workers, tc.name, verb)
						t.Run(name, func(t *testing.T) {
							runRebaseCase(t, uint64(300+ci), store, traffic, workers, tc, verb)
						})
					}
				}
			}
		}
	}
}

func runRebaseCase(t *testing.T, seed uint64, store string, traffic bool, workers int, tc rebaseCase, verb string) {
	// Three zones of ~40 clients: room for n/rebaseCost ≥ 2 role changes.
	p := adoptProblemSized(seed, store, traffic, 3, 120, 3)
	a, err := GreZGreC.Solve(xrand.New(seed), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	z := 0
	ev := NewEvaluator(p, a)
	if tc.empty {
		z = ev.AddZone(rebaseH)
		a = ev.Assignment()
	}
	members := append([]int(nil), ev.zoneMembers[z]...)
	n := len(members)
	if !tc.empty && n < 2*rebaseCost {
		t.Fatalf("zone 0 has %d clients, the cases need %d", n, 2*rebaseCost)
	}
	cur, next := a.Clone(), a.Clone()
	cur.ZoneServer[z], next.ZoneServer[z] = rebaseH, rebaseT
	for i, j := range members {
		cur.ClientContact[j], next.ClientContact[j] = tc.cur(i, n), tc.next(i, n)
	}

	ev.Reset(ev.p, cur)
	ev.SetTelemetry(telemetry.NewRegistry())
	ev.SetWorkers(workers)
	attachLateIndex(t, ev, workers)
	syncAllRows(ev)
	if tc.prepare != nil {
		tc.prepare(ev)
	}
	wasDirty := ev.cache.dirty[z]
	twin := resetTwin(ev, next)
	adj, inval, reb := ev.tele.rowAdjusts.Value(), ev.tele.invalidations.Value(), ev.tele.rowsRebased.Value()

	if verb == "move" {
		ev.ApplyZoneMove(z, rebaseT)
		sameAssignment(t, "ApplyZoneMove leaves the case's next assignment", next, ev.Assignment())
	} else {
		st := ev.Adopt(next)
		wantRebased := 0
		if !tc.wantDirty {
			wantRebased = 1
		}
		if st.Rehosted != 1 || st.Rebased != wantRebased || st.RowsKept != p.NumZones-1+wantRebased {
			t.Fatalf("Adopt reports %+v, want one zone rehosted and %d rebased", st, wantRebased)
		}
		requireSameState(t, "adopted", ev, twin, false)
	}

	if ev.cache.dirty[z] != tc.wantDirty {
		t.Fatalf("zone %d dirty = %v, want %v", z, ev.cache.dirty[z], tc.wantDirty)
	}
	wantInval, wantReb := uint64(0), uint64(1)
	if tc.wantDirty {
		wantReb = 0
		if !wasDirty {
			wantInval = 1
		}
	}
	if got := ev.tele.invalidations.Value() - inval; got != wantInval {
		t.Fatalf("%d invalidations counted, want %d", got, wantInval)
	}
	if got := ev.tele.rowsRebased.Value() - reb; got != wantReb {
		t.Fatalf("%d rebased rows counted, want %d", got, wantReb)
	}
	if got := int(ev.tele.rowAdjusts.Value() - adj); tc.adjusts >= 0 && got != tc.adjusts {
		t.Fatalf("%d adjustments applied, want %d", got, tc.adjusts)
	}
	if !tc.wantDirty && !ev.cache.tdirty[z] {
		t.Fatalf("zone %d rebased with its own traffic bit clear", z)
	}
	checkCleanRows(t, "rebased", ev)
	checkLateIndex(t, ev)
	syncAllRows(ev)
	if ev.trafficOn && ev.cache.tdirty[z] {
		t.Fatalf("zone %d traffic entries still stale after a fold", z)
	}
	checkCleanRows(t, "rebased, synced", ev)
	sameSearch(t, "after the rehosting", ev, twin, xrand.New(seed+1))
	if verb == "adopt" {
		requireSameState(t, "after the folds", ev, twin, true)
	}
}
