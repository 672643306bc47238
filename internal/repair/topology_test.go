package repair

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

// serverEmpty reports whether server i holds no zones and no contacts.
func serverEmpty(pl *Planner, i int) bool {
	for z := 0; z < pl.NumZones(); z++ {
		if pl.ZoneHost(z) == i {
			return false
		}
	}
	ev := pl.Evaluator()
	for j := 0; j < ev.NumClients(); j++ {
		if ev.Contact(j) == i {
			return false
		}
	}
	return true
}

// newTopoPlanner builds a planner over a fresh random instance with
// forwarding pressure (so drains actually move contacts, not just zones).
func newTopoPlanner(t *testing.T, seed uint64, workers int) *Planner {
	t.Helper()
	rng := xrand.New(seed)
	p := randProblem(rng.Split(), 30)
	cfg := testConfig()
	cfg.Opt.Workers = workers
	pl, err := New(cfg, p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestDrainServerEvacuates is the drain contract: after DrainServer the
// server hosts zero zones and zero contacts, no full re-solve ran while
// the drift guard was quiet, and the planner passes Audit. RemoveServer
// then succeeds, and the renumbered topology still checks out under
// further churn.
func TestDrainServerEvacuates(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		pl := newTopoPlanner(t, uint64(8800+trial), 0)
		rng := xrand.New(uint64(990 + trial))
		m := pl.NumServers()
		victim := rng.IntN(m)
		solvesBefore := pl.Stats().FullSolves
		if err := pl.DrainServer(victim); err != nil {
			t.Fatalf("trial %d: drain: %v", trial, err)
		}
		if !serverEmpty(pl, victim) {
			t.Fatalf("trial %d: drained server %d still holds zones or contacts", trial, victim)
		}
		if !pl.Draining(victim) {
			t.Fatalf("trial %d: server %d not marked draining", trial, victim)
		}
		if pl.Stats().FullSolves != solvesBefore {
			t.Fatalf("trial %d: drain triggered a full re-solve (guard was quiet)", trial)
		}
		if pl.Stats().ServerDrains != 1 {
			t.Fatalf("trial %d: ServerDrains = %d, want 1", trial, pl.Stats().ServerDrains)
		}
		// An idempotent retry counts nothing: no extra drain, no event.
		events := pl.Stats().Events
		if err := pl.DrainServer(victim); err != nil {
			t.Fatalf("trial %d: drain retry: %v", trial, err)
		}
		if st := pl.Stats(); st.ServerDrains != 1 || st.Events != events {
			t.Fatalf("trial %d: drain retry counted (drains %d, events %d→%d)",
				trial, st.ServerDrains, events, st.Events)
		}
		audit(t, pl)

		if _, err := pl.RemoveServer(victim); err != nil {
			t.Fatalf("trial %d: remove after drain: %v", trial, err)
		}
		if pl.NumServers() != m-1 {
			t.Fatalf("trial %d: %d servers after removal, want %d", trial, pl.NumServers(), m-1)
		}
		audit(t, pl)

		// The renumbered topology keeps absorbing churn correctly.
		for e := 0; e < 10; e++ {
			if _, err := pl.Join(rng.IntN(pl.NumZones()), rng.Uniform(0.05, 0.5), randRow(rng, pl.NumServers())); err != nil {
				t.Fatalf("trial %d: join after removal: %v", trial, err)
			}
		}
		audit(t, pl)
	}
}

// TestDrainMatchesManualEvacuation is the drain ≡ remove-after-evacuation
// equivalence: DrainServer followed by RemoveServer must land bit-identical
// to hand-rolling the same evacuation protocol through the evaluator
// primitives (cordon, forced best-destination zone moves in ascending
// order with post-move contact repair, contact re-greedy, seeded scan)
// and then removing the emptied server.
func TestDrainMatchesManualEvacuation(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		seed := uint64(7300 + trial)
		pl := newTopoPlanner(t, seed, 0)
		oracle := newTopoPlanner(t, seed, 0)
		victim := int(seed) % pl.NumServers()

		if err := pl.DrainServer(victim); err != nil {
			t.Fatalf("trial %d: drain: %v", trial, err)
		}
		if _, err := pl.RemoveServer(victim); err != nil {
			t.Fatalf("trial %d: remove: %v", trial, err)
		}

		// Manual evacuation through the evaluator primitives.
		ev := oracle.Evaluator()
		p := oracle.Problem()
		ev.SetCordon(victim, true)
		var touched []int
		for z := 0; z < p.NumZones; z++ {
			if ev.ZoneHost(z) != victim {
				continue
			}
			ev.ApplyZoneMove(z, ev.BestZoneHost(z))
			for _, j := range ev.ZoneClients(z) {
				if ev.ClientDelay(j) > p.D {
					ev.GreedyContact(j)
				}
			}
			touched = append(touched, z)
		}
		for j := 0; j < ev.NumClients(); j++ {
			if ev.Contact(j) == victim {
				ev.GreedyContact(j)
				touched = append(touched, p.ClientZones[j])
			}
		}
		oracle.repairZones(dedupZones(touched)...)
		if _, err := oracle.RemoveServer(victim); err != nil {
			t.Fatalf("trial %d: oracle remove: %v", trial, err)
		}

		got, want := pl.Assignment(), oracle.Assignment()
		if !reflect.DeepEqual(got.ZoneServer, want.ZoneServer) {
			t.Fatalf("trial %d: zone hosting diverged:\n got %v\nwant %v", trial, got.ZoneServer, want.ZoneServer)
		}
		if !reflect.DeepEqual(got.ClientContact, want.ClientContact) {
			t.Fatalf("trial %d: contacts diverged", trial)
		}
	}
}

// TestTopologyWorkersDeterministic drives an identical topology+churn
// event script at every worker count and demands bit-identical
// trajectories — results, populations, repair counters.
func TestTopologyWorkersDeterministic(t *testing.T) {
	type snap struct {
		a     *core.Assignment
		stats Stats
	}
	run := func(workers int) snap {
		pl := newTopoPlanner(t, 4242, workers)
		rng := xrand.New(606)
		// Grow: one server, one zone, a batch of joins into it.
		m := pl.NumServers()
		ss := make([]float64, m)
		for i := range ss {
			ss[i] = rng.Uniform(5, 200)
		}
		col := make([]float64, pl.NumClients())
		for j := range col {
			col[j] = rng.Uniform(0, 400)
		}
		if _, err := pl.AddServer(150, ss, col); err != nil {
			t.Fatal(err)
		}
		if _, err := pl.AddZone(-1); err != nil {
			t.Fatal(err)
		}
		nz := pl.NumZones()
		var zones []int
		var rts []float64
		var css [][]float64
		for x := 0; x < 20; x++ {
			zones = append(zones, rng.IntN(nz))
			rts = append(rts, rng.Uniform(0.05, 0.5))
			css = append(css, randRow(rng, pl.NumServers()))
		}
		if err := pl.JoinBatch(zones, rts, css); err != nil {
			t.Fatal(err)
		}
		// Shrink: drain a loaded server, remove it, retire an empty zone
		// if one exists.
		if err := pl.DrainServer(0); err != nil {
			t.Fatal(err)
		}
		if _, err := pl.RemoveServer(0); err != nil {
			t.Fatal(err)
		}
		for z := 0; z < pl.NumZones(); z++ {
			if len(pl.Evaluator().ZoneClients(z)) == 0 {
				if _, err := pl.RetireZone(z); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		// Mixed churn on the mutated topology.
		for e := 0; e < 30; e++ {
			switch e % 3 {
			case 0:
				if _, err := pl.Join(rng.IntN(pl.NumZones()), rng.Uniform(0.05, 0.5), randRow(rng, pl.NumServers())); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := pl.Move(e, rng.IntN(pl.NumZones())); err != nil {
					t.Fatal(err)
				}
			default:
				if err := pl.UpdateDelays(e, randRow(rng, pl.NumServers())); err != nil {
					t.Fatal(err)
				}
			}
		}
		audit(t, pl)
		return snap{a: pl.Assignment(), stats: pl.Stats()}
	}
	base := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.a, base.a) {
			t.Fatalf("workers=%d: assignment diverged from sequential", workers)
		}
		if got.stats != base.stats {
			t.Fatalf("workers=%d: stats diverged: %+v vs %+v", workers, got.stats, base.stats)
		}
	}
}

// TestAddServerThenSolveMatchesStatic proves grow-then-solve equivalence
// at the planner level: adding a server/zone to a live planner and running
// one full solve lands bit-identical to a planner constructed over the
// already-grown problem.
func TestAddServerThenSolveMatchesStatic(t *testing.T) {
	rng := xrand.New(515)
	p := randProblem(rng.Split(), 0)
	m := p.NumServers()

	// The grown problem: one more server with known delays.
	ss := make([]float64, m)
	for i := range ss {
		ss[i] = rng.Uniform(5, 200)
	}
	col := make([]float64, p.NumClients())
	for j := range col {
		col[j] = rng.Uniform(0, 400)
	}
	grown := p.Clone()
	grown.ServerCaps = append(grown.ServerCaps, 140)
	for i := 0; i < m; i++ {
		grown.SS[i] = append(grown.SS[i], ss[i])
	}
	row := append(append([]float64(nil), ss...), 0)
	grown.SS = append(grown.SS, row)
	grown.AppendCSCol(col)

	live, err := New(testConfig(), p, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.AddServer(140, ss, col); err != nil {
		t.Fatal(err)
	}
	if err := live.FullSolve(); err != nil {
		t.Fatal(err)
	}

	static, err := New(testConfig(), grown, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}

	// GreZ-GreC is deterministic, so different RNG streams cannot diverge.
	if !reflect.DeepEqual(live.Assignment(), static.Assignment()) {
		t.Fatalf("grown-then-solved assignment differs from statically built one")
	}
	// The delays are compared as rows: how each store groups them is its own.
	lp, sp := *live.Problem(), *static.Problem()
	lp.CS, lp.Delays = lp.DenseRows(), nil
	sp.CS, sp.Delays = sp.DenseRows(), nil
	if !reflect.DeepEqual(lp, sp) {
		t.Fatalf("grown problem differs from statically built one")
	}
}

// TestJoinBatchMatchesScript proves JoinBatch is exactly "memberships
// first, then one seeded scan over the union of touched zones": a scripted
// replay through the evaluator primitives lands bit-identical.
func TestJoinBatchMatchesScript(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		seed := uint64(660 + trial)
		pl := newTopoPlanner(t, seed, 0)
		oracle := newTopoPlanner(t, seed, 0)
		rng := xrand.New(seed * 3)
		n := pl.NumZones()
		var zones []int
		var rts []float64
		var css [][]float64
		for x := 0; x < 25; x++ {
			zones = append(zones, rng.IntN(n))
			rts = append(rts, rng.Uniform(0.05, 0.5))
			css = append(css, randRow(rng, pl.NumServers()))
		}
		if err := pl.JoinBatch(zones, rts, css); err != nil {
			t.Fatal(err)
		}

		ev := oracle.Evaluator()
		for x := range zones {
			j := ev.AddClient(zones[x], rts[x], css[x])
			ev.GreedyContact(j)
		}
		oracle.repairZones(dedupZones(append([]int(nil), zones...))...)

		if !reflect.DeepEqual(pl.Assignment(), oracle.Assignment()) {
			t.Fatalf("trial %d: batch join diverged from scripted replay", trial)
		}
		audit(t, pl)
		if got, want := pl.Stats().Joins, len(zones); got != want {
			t.Fatalf("trial %d: Joins = %d, want %d", trial, got, want)
		}
		if got, want := pl.Stats().Events, oracle.Stats().Events+len(zones); got != want {
			t.Fatalf("trial %d: Events = %d, want %d", trial, got, want)
		}
	}
}

// TestMoveBatchSteadyStateAllocs pins the batch scratch: once the planner's
// member marks, touched-zone slice and zone buckets have grown to the
// batch's size, a MoveBatch allocates nothing — one runs per tick of a
// mobility workload — and no batch, refused or applied, leaves a member
// behind for the next one to trip over.
func TestMoveBatchSteadyStateAllocs(t *testing.T) {
	pl := newTopoPlanner(t, 4100, 0)
	n := pl.NumZones()
	js := make([]int, pl.NumClients())
	zones := make([]int, len(js))
	for j := range js {
		js[j] = j
	}
	tick := 0
	move := func() {
		tick++
		for x := range zones {
			zones[x] = (x + tick) % n
		}
		if err := pl.MoveBatch(js, zones); err != nil {
			t.Fatal(err)
		}
	}
	for warm := 0; warm < 4*n; warm++ {
		move()
	}
	if avg := testing.AllocsPerRun(50, move); avg != 0 {
		t.Fatalf("steady-state MoveBatch allocates %.1f times per call, want 0", avg)
	}
	// A batch opened on every client finds none of them a member.
	pl.openBatch(pl.NumClients())
	for j := range js {
		if pl.batchMark[j] > pl.batchBase {
			t.Fatalf("client %d is a member of a batch just opened", j)
		}
	}
	// Rejected batches leave nothing behind either: the same members pass
	// next time.
	if err := pl.MoveBatch([]int{0, 1, 0}, []int{0, 0, 0}); err == nil {
		t.Fatal("repeated index accepted")
	}
	if err := pl.LeaveBatch([]int{0, 1, 0}); err == nil {
		t.Fatal("repeated index accepted")
	}
	if err := pl.MoveBatch([]int{0, 1}, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := pl.LeaveBatch([]int{1, 0}); err != nil {
		t.Fatal(err)
	}
	// At the top of the mark range the marks are cleared, not wrapped.
	pl.batchEnd = math.MaxUint32 - 1
	if err := pl.MoveBatch([]int{0, 1}, []int{1, 1}); err != nil || pl.batchBase != 0 {
		t.Fatalf("batch past the mark range: %v, base %d, want the marks cleared", err, pl.batchBase)
	}
	if err := pl.MoveBatch([]int{2, 3, 2}, []int{0, 0, 0}); err == nil {
		t.Fatal("repeated index accepted after the marks were cleared")
	}
	audit(t, pl)
}

// TestTopologySentinels covers the error surface with errors.Is — no
// message sniffing anywhere.
func TestTopologySentinels(t *testing.T) {
	pl := newTopoPlanner(t, 31, 0)
	m := pl.NumServers()

	if _, err := pl.RemoveServer(m); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("RemoveServer(out of range) = %v, want ErrUnknownServer", err)
	}
	if err := pl.DrainServer(-1); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("DrainServer(-1) = %v, want ErrUnknownServer", err)
	}
	if _, err := pl.RetireZone(pl.NumZones()); !errors.Is(err, ErrUnknownZone) {
		t.Fatalf("RetireZone(out of range) = %v, want ErrUnknownZone", err)
	}

	// A loaded server cannot be removed without draining.
	loaded := -1
	for i := 0; i < m; i++ {
		if !serverEmpty(pl, i) {
			loaded = i
			break
		}
	}
	if loaded < 0 {
		t.Fatal("no loaded server in test instance")
	}
	if _, err := pl.RemoveServer(loaded); !errors.Is(err, ErrServerNotEmpty) {
		t.Fatalf("RemoveServer(loaded) = %v, want ErrServerNotEmpty", err)
	}

	// A populated zone cannot be retired.
	popZone := -1
	for z := 0; z < pl.NumZones(); z++ {
		if len(pl.Evaluator().ZoneClients(z)) > 0 {
			popZone = z
			break
		}
	}
	if popZone < 0 {
		t.Fatal("no populated zone in test instance")
	}
	if _, err := pl.RetireZone(popZone); !errors.Is(err, ErrZoneNotEmpty) {
		t.Fatalf("RetireZone(populated) = %v, want ErrZoneNotEmpty", err)
	}

	// Draining every server but one makes the last drain impossible.
	for i := 1; i < m; i++ {
		if err := pl.DrainServer(i); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if err := pl.DrainServer(0); !errors.Is(err, ErrLastServer) {
		t.Fatalf("DrainServer(last available) = %v, want ErrLastServer", err)
	}
}

// TestUncordonRestoresCapacity proves the rolling-deploy round trip:
// while draining, the server's capacity leaves the Utilization
// denominator (nominal capacity is untouched); after uncordon the fleet
// is whole again.
func TestUncordonRestoresCapacity(t *testing.T) {
	pl := newTopoPlanner(t, 77, 0)
	nominal := pl.ServerCapacity(1)
	total := pl.Problem().TotalCapacity()
	if err := pl.DrainServer(1); err != nil {
		t.Fatal(err)
	}
	if got := pl.ServerCapacity(1); got != nominal {
		t.Fatalf("nominal capacity while draining = %v, want %v", got, nominal)
	}
	// The drained capacity leaves the Utilization denominator (the load
	// itself changes too — evacuation removes forwarding legs — so the
	// check is against the evaluator's live total load).
	if got, want := pl.Utilization(), pl.Evaluator().TotalLoad()/(total-nominal); !close64(got, want) {
		t.Fatalf("utilization while draining = %v, want %v", got, want)
	}
	if err := pl.UncordonServer(1); err != nil {
		t.Fatal(err)
	}
	if pl.Draining(1) {
		t.Fatal("server still draining after uncordon")
	}
	if got, want := pl.Utilization(), pl.Evaluator().TotalLoad()/total; !close64(got, want) {
		t.Fatalf("utilization after uncordon = %v, want %v", got, want)
	}
	audit(t, pl)
	// Uncordoning an active server is a no-op.
	if err := pl.UncordonServer(1); err != nil {
		t.Fatal(err)
	}
}

// flowBackProblem builds an instance where server 0 is the only server
// that can serve any client in bound (10 ms direct vs 150 ms, D = 100 ms),
// so draining server 0 collapses pQoS to zero and the post-uncordon
// flow-back scan must restore it — the regression shape for the uncordon
// dead-zone (before the flow-back, the returned server stayed empty until
// a full re-solve or a drift-guard trip).
func flowBackProblem() *core.Problem {
	const m, n, perZone = 3, 6, 10
	k := n * perZone
	p := &core.Problem{
		ServerCaps:  []float64{100, 100, 100},
		NumZones:    n,
		ClientZones: make([]int, k),
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           100,
	}
	for i := 0; i < m; i++ {
		p.SS[i] = []float64{50, 50, 50}
		p.SS[i][i] = 0
	}
	for j := 0; j < k; j++ {
		p.ClientZones[j] = j % n
		p.ClientRT[j] = 1
		p.CS[j] = []float64{10, 150, 150}
	}
	return p
}

// TestUncordonFlowBack is the satellite contract for the uncordon
// dead-zone fix: immediately after UncordonServer — with NO full re-solve
// and no further churn — the returned server holds load again and pQoS is
// back at its pre-drain level, bit-identically for every worker count.
func TestUncordonFlowBack(t *testing.T) {
	var base *core.Assignment
	for _, workers := range []int{1, 4} {
		cfg := testConfig()
		cfg.Opt.Workers = workers
		pl, err := New(cfg, flowBackProblem(), xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		before := pl.PQoS()
		if before != 1 {
			t.Fatalf("workers %d: pre-drain pQoS = %v, want 1 (test instance broken)", workers, before)
		}
		if err := pl.DrainServer(0); err != nil {
			t.Fatal(err)
		}
		if got := pl.PQoS(); got != 0 {
			t.Fatalf("workers %d: pQoS during drain = %v, want 0 (no other server is in bound)", workers, got)
		}
		solves := pl.Stats().FullSolves
		if err := pl.UncordonServer(0); err != nil {
			t.Fatal(err)
		}
		st := pl.Stats()
		if st.FullSolves != solves {
			t.Fatalf("workers %d: uncordon ran a full re-solve (the flow-back must be O(affected))", workers)
		}
		if st.ServerUncordons != 1 {
			t.Fatalf("workers %d: ServerUncordons = %d, want 1", workers, st.ServerUncordons)
		}
		if serverEmpty(pl, 0) {
			t.Fatalf("workers %d: no load flowed back to the uncordoned server", workers)
		}
		if got := pl.PQoS(); got != before {
			t.Fatalf("workers %d: post-uncordon pQoS = %v, want %v restored by flow-back", workers, got, before)
		}
		audit(t, pl)
		a := pl.Assignment()
		if base == nil {
			base = a
		} else if !reflect.DeepEqual(base, a) {
			t.Fatalf("flow-back result differs between worker counts")
		}
	}
}

// TestAddSpareServerStaysWarm covers the warm-spare pool lifecycle: a
// spare arrives cordoned (no placement path touches it, its capacity
// stays out of the Utilization denominator, full solves leave it empty)
// and one UncordonServer admits it — after which it attracts load with no
// full re-solve.
func TestAddSpareServerStaysWarm(t *testing.T) {
	pl := newTopoPlanner(t, 321, 0)
	utilBefore := pl.Utilization()
	ss := make([]float64, pl.NumServers())
	for i := range ss {
		ss[i] = 20
	}
	col := make([]float64, pl.NumClients())
	for j := range col {
		col[j] = 5 // very attractive — once admitted
	}
	i, err := pl.AddSpareServer(1000, ss, col)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Draining(i) {
		t.Fatal("spare not cordoned on arrival")
	}
	if !serverEmpty(pl, i) {
		t.Fatal("spare attracted load while pooled")
	}
	if got := pl.Utilization(); !close64(got, utilBefore) {
		t.Fatalf("pooled spare entered the Utilization denominator: %v, want %v", got, utilBefore)
	}
	if err := pl.FullSolve(); err != nil {
		t.Fatal(err)
	}
	if !serverEmpty(pl, i) {
		t.Fatal("full solve placed load on a pooled spare")
	}
	solves := pl.Stats().FullSolves
	if err := pl.UncordonServer(i); err != nil {
		t.Fatal(err)
	}
	if pl.Stats().FullSolves != solves {
		t.Fatal("admitting a spare ran a full re-solve")
	}
	if serverEmpty(pl, i) {
		t.Fatal("admitted spare attracted nothing (flow-back missed it)")
	}
	audit(t, pl)
}

// TestFullSolveHonoursDrain is the regression pin for full re-solves
// during an in-flight drain: the drift guard (or a fallback cadence) may
// re-run the whole two-phase algorithm while a server is drained, and the
// solve must both succeed (the problem stays structurally valid) and keep
// the drained server empty — Options.Cordoned excludes it from every
// placement, spill included.
func TestFullSolveHonoursDrain(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		pl := newTopoPlanner(t, uint64(9600+trial), 0)
		victim := trial % pl.NumServers()
		if err := pl.DrainServer(victim); err != nil {
			t.Fatalf("trial %d: drain: %v", trial, err)
		}
		if err := pl.FullSolve(); err != nil {
			t.Fatalf("trial %d: full solve during drain: %v", trial, err)
		}
		audit(t, pl) // the drained server holds nothing
		// After uncordon, a full solve may use the server again.
		if err := pl.UncordonServer(victim); err != nil {
			t.Fatal(err)
		}
		if err := pl.FullSolve(); err != nil {
			t.Fatalf("trial %d: full solve after uncordon: %v", trial, err)
		}
		audit(t, pl)
	}
}

// TestUpdateServerDelayColumn streams a just-added server's measurements
// in column form and checks the state stays consistent and the new server
// becomes attractive once measured.
func TestUpdateServerDelayColumn(t *testing.T) {
	pl := newTopoPlanner(t, 123, 0)
	m := pl.NumServers()
	ss := make([]float64, m)
	for i := range ss {
		ss[i] = 10
	}
	// Unmeasured: every client starts far out of bound for the new server.
	col := make([]float64, pl.NumClients())
	for j := range col {
		col[j] = 1e6
	}
	idx, err := pl.AddServer(500, ss, col)
	if err != nil {
		t.Fatal(err)
	}
	audit(t, pl)

	// Measure: every client is 1 ms from the new server.
	js := make([]int, pl.NumClients())
	ds := make([]float64, pl.NumClients())
	for j := range js {
		js[j] = j
		ds[j] = 1
	}
	if err := pl.UpdateServerDelayColumn(idx, js, ds); err != nil {
		t.Fatal(err)
	}
	audit(t, pl)
	if got := pl.Stats().DelayUpdates; got != 1 {
		t.Fatalf("DelayUpdates = %d, want 1 (one column = one event)", got)
	}
	p := pl.Problem()
	for j := 0; j < p.NumClients(); j++ {
		if d := p.CSAt(j, idx); d != 1 {
			t.Fatalf("client %d delay to new server = %v, want 1", j, d)
		}
	}
}

// TestIDBindingTopology drives the ID layer across swap-remove
// renumbering: IDs stay stable while dense indices shift.
func TestIDBindingTopology(t *testing.T) {
	rng := xrand.New(2024)
	p := randProblem(rng.Split(), 10)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, p.NumClients())
	for j := range ids {
		ids[j] = string(rune('a'+j%26)) + string(rune('0'+j/26))
	}
	b, err := NewIDBinding(pl, ids)
	if err != nil {
		t.Fatal(err)
	}
	serverIDs := make([]string, p.NumServers())
	for i := range serverIDs {
		serverIDs[i] = "srv" + string(rune('A'+i))
	}
	zoneIDs := make([]string, p.NumZones)
	for z := range zoneIDs {
		zoneIDs[z] = "zone" + string(rune('A'+z))
	}
	if err := b.NameTopology(serverIDs, zoneIDs); err != nil {
		t.Fatal(err)
	}

	ss := make([]float64, p.NumServers())
	for i := range ss {
		ss[i] = 25
	}
	if err := b.AddServer("srvNew", 200, ss, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := b.AddServer("srvNew", 200, append(ss, 0), nil, false); !errors.Is(err, ErrDuplicateServer) {
		t.Fatalf("duplicate AddServer = %v, want ErrDuplicateServer", err)
	}
	if err := b.AddZone("zoneNew", "srvNew"); err != nil {
		t.Fatal(err)
	}

	// Drain + remove the FIRST server: the last server is renumbered to
	// index 0, and its ID must follow.
	lastID := b.ServerID(pl.NumServers() - 1)
	if err := b.DrainServer("srvA"); err != nil {
		t.Fatal(err)
	}
	if i, err := b.ServerIndex("srvA"); err != nil || !pl.Draining(i) {
		t.Fatalf("srvA (index %d, %v) not draining", i, err)
	}
	if err := b.RemoveServer("srvA"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ServerIndex("srvA"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("removed server still resolves: %v", err)
	}
	i, err := b.ServerIndex(lastID)
	if err != nil || i != 0 {
		t.Fatalf("renumbered server %q at index %d (err %v), want 0", lastID, i, err)
	}

	// Retire an empty zone by ID; the last zone's ID follows its renumber.
	empty := ""
	for z := 0; z < pl.NumZones(); z++ {
		if len(pl.Evaluator().ZoneClients(z)) == 0 {
			empty = b.ZoneID(z)
			break
		}
	}
	if empty == "" {
		t.Fatal("no empty zone (zoneNew should be empty)")
	}
	lastZone := b.ZoneID(pl.NumZones() - 1)
	if err := b.RetireZone(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ZoneIndex(empty); err == nil && empty != lastZone {
		t.Fatalf("retired zone %q still resolves", empty)
	}
	if empty != lastZone {
		if _, err := b.ZoneIndex(lastZone); err != nil {
			t.Fatalf("renumbered zone %q lost: %v", lastZone, err)
		}
	}

	// Batch join through the binding, then a column update by client ID.
	var bids []string
	var zones []int
	var rts []float64
	var css [][]float64
	for x := 0; x < 5; x++ {
		bids = append(bids, "batch"+string(rune('0'+x)))
		zones = append(zones, x%pl.NumZones())
		rts = append(rts, 0.2)
		css = append(css, randRow(rng, pl.NumServers()))
	}
	if err := b.JoinBatch(bids, zones, rts, css); err != nil {
		t.Fatal(err)
	}
	if err := b.JoinBatch(bids[:1], zones[:1], rts[:1], css[:1]); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("duplicate batch join = %v, want ErrDuplicateClient", err)
	}
	if err := b.UpdateServerDelays("srvNew", map[string]float64{"batch0": 3, "batch1": 4}); err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateServerDelays("nope", map[string]float64{"batch0": 3}); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("column update on unknown server = %v, want ErrUnknownServer", err)
	}
	audit(t, pl)
}
