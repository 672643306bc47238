package repair

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"dvecap/internal/xrand"
)

// churnDriver drives an ID-addressed mixed workload — client churn,
// batches, delay refreshes, drain/uncordon cycles — deterministically from
// its RNG. Two drivers with equal RNG state and equal live lists issue the
// same logical event sequence, which is how the round-trip tests compare a
// recovered planner against the live one it was captured from.
type churnDriver struct {
	rng  *xrand.RNG
	live []string
	next int
}

func (d *churnDriver) clone(rng *xrand.RNG) *churnDriver {
	return &churnDriver{rng: rng, live: append([]string(nil), d.live...), next: d.next}
}

func (d *churnDriver) freshID() string {
	id := fmt.Sprintf("c%04d", d.next)
	d.next++
	return id
}

func (d *churnDriver) run(t *testing.T, b *IDBinding, events int) {
	t.Helper()
	pl := b.Planner()
	m, n := pl.NumServers(), pl.NumZones()
	for e := 0; e < events; e++ {
		r := d.rng.Float64()
		switch {
		case len(d.live) == 0 || r < 0.28:
			id := d.freshID()
			if err := b.Join(id, d.rng.IntN(n), d.rng.Uniform(0.1, 0.6), randRow(d.rng, m)); err != nil {
				t.Fatalf("event %d join: %v", e, err)
			}
			d.live = append(d.live, id)
		case r < 0.36:
			cnt := d.rng.IntRange(2, 5)
			ids := make([]string, cnt)
			zones := make([]int, cnt)
			rts := make([]float64, cnt)
			css := make([][]float64, cnt)
			for x := range ids {
				ids[x] = d.freshID()
				zones[x] = d.rng.IntN(n)
				rts[x] = d.rng.Uniform(0.1, 0.6)
				css[x] = randRow(d.rng, m)
			}
			if err := b.JoinBatch(ids, zones, rts, css); err != nil {
				t.Fatalf("event %d join batch: %v", e, err)
			}
			d.live = append(d.live, ids...)
		case r < 0.52:
			x := d.rng.IntN(len(d.live))
			if err := b.Leave(d.live[x]); err != nil {
				t.Fatalf("event %d leave: %v", e, err)
			}
			d.live = append(d.live[:x], d.live[x+1:]...)
		case r < 0.60 && len(d.live) >= 4:
			cnt := d.rng.IntRange(2, 4)
			picks := d.rng.SampleWithout(len(d.live), cnt)
			ids := make([]string, cnt)
			gone := make(map[string]bool, cnt)
			for x, i := range picks {
				ids[x] = d.live[i]
				gone[ids[x]] = true
			}
			if err := b.LeaveBatch(ids); err != nil {
				t.Fatalf("event %d leave batch: %v", e, err)
			}
			kept := d.live[:0]
			for _, id := range d.live {
				if !gone[id] {
					kept = append(kept, id)
				}
			}
			d.live = kept
		case r < 0.74:
			if err := b.Move(d.live[d.rng.IntN(len(d.live))], d.rng.IntN(n)); err != nil {
				t.Fatalf("event %d move: %v", e, err)
			}
		case r < 0.82 && len(d.live) >= 4:
			cnt := d.rng.IntRange(2, 4)
			picks := d.rng.SampleWithout(len(d.live), cnt)
			ids := make([]string, cnt)
			zones := make([]int, cnt)
			for x, i := range picks {
				ids[x] = d.live[i]
				zones[x] = d.rng.IntN(n)
			}
			if err := b.MoveBatch(ids, zones); err != nil {
				t.Fatalf("event %d move batch: %v", e, err)
			}
		case r < 0.94:
			id := d.live[d.rng.IntN(len(d.live))]
			if err := b.UpdateDelays(id, randRow(d.rng, m)); err != nil {
				t.Fatalf("event %d delays: %v", e, err)
			}
		default:
			sid := b.ServerID(d.rng.IntN(m))
			if draining, _ := b.Draining(sid); draining {
				if err := b.UncordonServer(sid); err != nil {
					t.Fatalf("event %d uncordon: %v", e, err)
				}
			} else if pl.availableServers() > 1 {
				if err := b.DrainServer(sid); err != nil {
					t.Fatalf("event %d drain: %v", e, err)
				}
			}
		}
	}
}

// bindPlanner wraps a fresh planner in an IDBinding with synthetic client,
// server and zone IDs (clients named by handle in initial problem order).
func bindPlanner(t *testing.T, pl *Planner) *IDBinding {
	t.Helper()
	ids := make([]string, pl.NumClients())
	for j := range ids {
		ids[j] = fmt.Sprintf("seed%03d", j)
	}
	b, err := NewIDBinding(pl, ids)
	if err != nil {
		t.Fatal(err)
	}
	sids := make([]string, pl.NumServers())
	for i := range sids {
		sids[i] = fmt.Sprintf("s%d", i)
	}
	zids := make([]string, pl.NumZones())
	for z := range zids {
		zids[z] = fmt.Sprintf("z%d", z)
	}
	if err := b.NameTopology(sids, zids); err != nil {
		t.Fatal(err)
	}
	return b
}

// denseIDs lists the binding's client IDs in the planner's current dense
// order — the order a snapshot stores them in — checking DenseIDs against
// the per-ID index lookup.
func denseIDs(t *testing.T, b *IDBinding) []string {
	t.Helper()
	out := b.DenseIDs()
	if len(out) != b.Len() || len(out) != b.Planner().NumClients() {
		t.Fatalf("DenseIDs lists %d clients, binding holds %d, planner %d", len(out), b.Len(), b.Planner().NumClients())
	}
	for j, id := range out {
		if got, err := b.Index(id); err != nil || got != j {
			t.Fatalf("DenseIDs[%d] = %q, but Index(%q) = %d, %v", j, id, id, got, err)
		}
	}
	return out
}

func requireSamePlanner(t *testing.T, a, b *IDBinding) {
	t.Helper()
	sa, err := a.Planner().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Planner().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("planner states diverged:\n%+v\nvs\n%+v", sa, sb)
	}
	for _, id := range a.DenseIDs() {
		ca, err := a.Contact(id)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.Contact(id)
		if err != nil {
			t.Fatalf("client %q missing after recovery: %v", id, err)
		}
		da, _ := a.Delay(id)
		db, _ := b.Delay(id)
		za, _ := a.Zone(id)
		zb, _ := b.Zone(id)
		if ca != cb || da != db || za != zb {
			t.Fatalf("client %q diverged: contact %d/%d delay %v/%v zone %d/%d", id, ca, cb, da, db, za, zb)
		}
	}
}

// TestPlannerStateRoundTrip is the repair-layer half of the durability
// guarantee: ExportState → JSON → NewFromState + RestoreIDBinding yields a
// planner whose state is deeply equal to the live one AND whose further
// trajectory under identical churn — including drift-guard and imbalance-
// guard full solves drawing from the restored RNG — stays bit-identical.
func TestPlannerStateRoundTrip(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 8; trial++ {
		p := randProblem(rng.Split(), 400)
		cfg := testConfig()
		cfg.DriftPQoS = 0.03
		cfg.DriftUtilSpread = 0.15
		if trial%2 == 1 {
			cfg.Opt.Workers = 4
		}
		pl, err := New(cfg, p, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		live := bindPlanner(t, pl)
		drv := &churnDriver{rng: rng.Split()}
		drv.run(t, live, 120)

		st, err := pl.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		pl2, err := NewFromState(cfg, pl.Problem().Clone(), &back)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreIDBinding(pl2, denseIDs(t, live),
			append([]string(nil), live.ServerNames()...),
			append([]string(nil), live.ZoneNames()...))
		if err != nil {
			t.Fatal(err)
		}
		requireSamePlanner(t, live, restored)

		// Identical further churn, identical trajectories — solver epochs,
		// guard counters, every contact.
		seed := rng.Split().Seed()
		d1 := drv.clone(xrand.New(seed))
		d2 := drv.clone(xrand.New(seed))
		d1.run(t, live, 120)
		d2.run(t, restored, 120)
		requireSamePlanner(t, live, restored)
		// checkPlanner's from-scratch comparison assumes no cordons; lift
		// any still-active drains (identically on both) first.
		for i := 0; i < pl.NumServers(); i++ {
			if err := pl.UncordonServer(i); err != nil {
				t.Fatal(err)
			}
			if err := pl2.UncordonServer(i); err != nil {
				t.Fatal(err)
			}
		}
		requireSamePlanner(t, live, restored)
		checkPlanner(t, pl2)
	}
}

// TestNewFromStateRejectsCorruptState exercises validation: recovery must
// refuse impossible snapshots instead of installing them.
func TestNewFromStateRejectsCorruptState(t *testing.T) {
	rng := xrand.New(5)
	p := randProblem(rng.Split(), 10)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	good, err := pl.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *State {
		raw, _ := json.Marshal(good)
		var st State
		_ = json.Unmarshal(raw, &st)
		return &st
	}

	st := fresh()
	st.ClientContact = st.ClientContact[:1]
	if _, err := NewFromState(testConfig(), p.Clone(), st); err == nil {
		t.Fatal("truncated contacts accepted")
	}
	st = fresh()
	st.Eval = nil
	if _, err := NewFromState(testConfig(), p.Clone(), st); err == nil {
		t.Fatal("missing evaluator sidecar accepted")
	}
	st = fresh()
	st.Drained = st.Drained[:1]
	if _, err := NewFromState(testConfig(), p.Clone(), st); err == nil {
		t.Fatal("truncated drain flags accepted")
	}
	st = fresh()
	st.Eval.Loads = st.Eval.Loads[:1]
	if _, err := NewFromState(testConfig(), p.Clone(), st); err == nil {
		t.Fatal("corrupt evaluator state accepted")
	}
	if _, err := NewFromState(testConfig(), p.Clone(), fresh()); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

// TestBatchLeaveMove covers the batch event surface: preconditions reject
// the whole batch, successful batches apply atomically with single-event
// accounting, and two identically driven planners agree.
func TestBatchLeaveMove(t *testing.T) {
	rng := xrand.New(77)
	p := randProblem(rng.Split(), 50)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	b := bindPlanner(t, pl)
	ids := b.DenseIDs()
	if len(ids) < 2 {
		t.Skip("problem too small")
	}

	before := pl.Stats()
	// Invalid batches: unknown member, duplicate member — nothing applies.
	if err := b.LeaveBatch([]string{ids[0], "ghost"}); err == nil {
		t.Fatal("leave batch with unknown client accepted")
	}
	if err := b.LeaveBatch([]string{ids[0], ids[0]}); err == nil {
		t.Fatal("leave batch with duplicate accepted")
	}
	if err := b.MoveBatch([]string{ids[0], ids[1]}, []int{0}); err == nil {
		t.Fatal("move batch with length mismatch accepted")
	}
	if err := b.MoveBatch([]string{ids[0]}, []int{pl.NumZones()}); err == nil {
		t.Fatal("move batch with bad zone accepted")
	}
	if got := pl.Stats(); got != before {
		t.Fatalf("rejected batches mutated stats: %+v vs %+v", got, before)
	}
	if _, err := b.Contact(ids[0]); err != nil {
		t.Fatalf("client %q lost by rejected batch: %v", ids[0], err)
	}

	// A successful move batch counts its size once.
	zones := make([]int, 2)
	for x := range zones {
		zones[x] = rng.IntN(pl.NumZones())
	}
	if err := b.MoveBatch(ids[:2], zones); err != nil {
		t.Fatal(err)
	}
	after := pl.Stats()
	if after.Moves != before.Moves+2 || after.Events != before.Events+2 {
		t.Fatalf("move batch accounting: moves %d→%d events %d→%d", before.Moves, after.Moves, before.Events, after.Events)
	}
	for x, id := range ids[:2] {
		z, err := b.Zone(id)
		if err != nil {
			t.Fatal(err)
		}
		if z != zones[x] {
			t.Fatalf("client %q in zone %d, batch sent it to %d", id, z, zones[x])
		}
	}

	// A successful leave batch removes exactly its members.
	if err := b.LeaveBatch(ids[:2]); err != nil {
		t.Fatal(err)
	}
	final := pl.Stats()
	if final.Leaves != after.Leaves+2 || final.Events != after.Events+2 {
		t.Fatalf("leave batch accounting: leaves %d→%d events %d→%d", after.Leaves, final.Leaves, after.Events, final.Events)
	}
	for _, id := range ids[:2] {
		if _, err := b.Contact(id); err == nil {
			t.Fatalf("client %q still present after leave batch", id)
		}
	}
	if got, want := b.Len(), len(ids)-2; got != want {
		t.Fatalf("population %d, want %d", got, want)
	}
	checkPlanner(t, pl)
}

// TestImbalanceGuard: with the pQoS guard disarmed and the spread guard
// armed at a hair trigger, churn fires full solves counted as imbalance
// solves; with the spread guard disarmed too, none fire.
func TestImbalanceGuard(t *testing.T) {
	run := func(spread float64) Stats {
		rng := xrand.New(99)
		p := randProblem(rng.Split(), 300)
		cfg := testConfig()
		cfg.DriftUtilSpread = spread
		pl, err := New(cfg, p, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		b := bindPlanner(t, pl)
		drv := &churnDriver{rng: rng.Split()}
		drv.run(t, b, 150)
		return pl.Stats()
	}
	armed := run(1e-9)
	if armed.ImbalanceSolves == 0 {
		t.Fatalf("hair-trigger spread guard never fired: %+v", armed)
	}
	if armed.FullSolves < armed.ImbalanceSolves+1 {
		t.Fatalf("imbalance solves %d not reflected in full solves %d", armed.ImbalanceSolves, armed.FullSolves)
	}
	disarmed := run(0)
	if disarmed.ImbalanceSolves != 0 || disarmed.FullSolves != 1 {
		t.Fatalf("disarmed guard fired: %+v", disarmed)
	}
	if disarmed.LastUtilSpread <= 0 {
		t.Fatalf("spread telemetry missing: %+v", disarmed)
	}
}

// TestEventCodecRoundTrip pins the canonical encoding: every field
// round-trips, empty ops are rejected on both sides.
func TestEventCodecRoundTrip(t *testing.T) {
	ev := &Event{
		Op: OpAddServer, ID: "c1", IDs: []string{"a", "b"},
		Zone: "z1", Zone2: "z3", Zones: []string{"z1", "z2"},
		Server: "s1", Host: "s0",
		RT: 0.25, RTs: []float64{0.1, 0.2}, Row: []float64{1, 2},
		Rows: [][]float64{{1}, {2}}, RTTs: map[string]float64{"c9": 30},
		ClientRTTs: map[string]float64{"c2": 12.5}, Capacity: 80,
		Weight: 1.5, Refresh: []ZoneRT{{Zone: "z1", RT: 0.3}},
		Node: 2, Nodes: []int{4, 5}, Auto: true, Spare: true, FullSolves: 7,
	}
	raw, err := ev.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEvent(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev, back) {
		t.Fatalf("codec round trip diverged:\n%+v\nvs\n%+v", ev, back)
	}
	if _, err := (&Event{}).Encode(); err == nil {
		t.Fatal("empty op encoded")
	}
	if _, err := DecodeEvent([]byte(`{}`)); err == nil {
		t.Fatal("empty op decoded")
	}
	if _, err := DecodeEvent([]byte(`not json`)); err == nil {
		t.Fatal("junk decoded")
	}
}
