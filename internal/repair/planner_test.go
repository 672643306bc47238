package repair

import (
	"math"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// randProblem builds a structurally valid random instance whose capacities
// leave headroom for extraJoins additional clients, so the feasibility
// property (capacities respected) is actually attainable under churn.
func randProblem(rng *xrand.RNG, extraJoins int) *core.Problem {
	m := rng.IntRange(2, 6)
	n := rng.IntRange(2, 10)
	k := rng.IntRange(2, 50)
	p := &core.Problem{
		ServerCaps:  make([]float64, m),
		ClientZones: make([]int, k),
		NumZones:    n,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           rng.Uniform(100, 300),
	}
	var totalRT float64
	for j := 0; j < k; j++ {
		p.ClientZones[j] = rng.IntN(n)
		p.ClientRT[j] = rng.Uniform(0.05, 0.5)
		totalRT += p.ClientRT[j]
		p.CS[j] = make([]float64, m)
		for i := 0; i < m; i++ {
			p.CS[j][i] = rng.Uniform(0, 500)
		}
	}
	for i := 0; i < m; i++ {
		p.SS[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for l := i + 1; l < m; l++ {
			d := rng.Uniform(0, 250)
			p.SS[i][l], p.SS[l][i] = d, d
		}
	}
	// Forwarding triples a client's worst-case footprint; headroom covers
	// the current population plus every future join on any single server.
	per := 3 * (totalRT + 0.5*float64(extraJoins))
	for i := 0; i < m; i++ {
		p.ServerCaps[i] = per * rng.Uniform(0.9, 1.1)
	}
	return p
}

func randRow(rng *xrand.RNG, m int) []float64 {
	row := make([]float64, m)
	for i := range row {
		row[i] = rng.Uniform(0, 500)
	}
	return row
}

func testConfig() Config {
	return Config{
		Algo: core.GreZGreC,
		Opt:  core.Options{Overflow: core.SpillLargestResidual},
	}
}

func close64(a, b float64) bool {
	return math.Abs(a-b) <= 1e-7*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// audit fails t with the first divergence pl.Audit finds, or when a server
// carries more than its capacity: every planner these tests build spills
// (testConfig), which never overloads.
func audit(t testing.TB, pl *Planner) {
	t.Helper()
	if err := pl.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Assignment().CheckCapacity(pl.Problem(), 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerEquivalenceUnderChurn is the repair-vs-full-solve equivalence
// property: after any sequence of join/leave/move/delay-update events, the
// planner-maintained solution stays feasible and passes Audit.
func TestPlannerEquivalenceUnderChurn(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := xrand.New(uint64(3100 + trial))
		const events = 60
		p := randProblem(rng.Split(), events)
		cfg := testConfig()
		if trial%2 == 0 {
			cfg.DriftPQoS = 0.05 // exercise the drift-triggered full solves too
		}
		pl, err := New(cfg, p, rng.Split())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		audit(t, pl)
		live := make([]int, p.NumClients())
		for h := range live {
			live[h] = h
		}
		m := p.NumServers()
		for step := 0; step < events; step++ {
			switch rng.IntN(4) {
			case 0:
				h, err := pl.Join(rng.IntN(p.NumZones), rng.Uniform(0.05, 0.5), randRow(rng, m))
				if err != nil {
					t.Fatalf("trial %d step %d join: %v", trial, step, err)
				}
				live = append(live, h)
			case 1:
				if len(live) > 1 {
					i := rng.IntN(len(live))
					if _, err := pl.Leave(live[i]); err != nil {
						t.Fatalf("trial %d step %d leave: %v", trial, step, err)
					}
					// The last client took the vacated index.
					live = live[:len(live)-1]
				}
			case 2:
				if len(live) > 0 {
					h := live[rng.IntN(len(live))]
					if err := pl.Move(h, rng.IntN(p.NumZones)); err != nil {
						t.Fatalf("trial %d step %d move: %v", trial, step, err)
					}
				}
			case 3:
				if len(live) > 0 {
					h := live[rng.IntN(len(live))]
					if err := pl.UpdateDelays(h, randRow(rng, m)); err != nil {
						t.Fatalf("trial %d step %d update: %v", trial, step, err)
					}
				}
			}
			audit(t, pl)
			if got := pl.NumClients(); got != len(live) {
				t.Fatalf("trial %d step %d: planner population %d, live indices %d", trial, step, got, len(live))
			}
		}
		st := pl.Stats()
		if st.Events != st.Joins+st.Leaves+st.Moves+st.DelayUpdates {
			t.Fatalf("trial %d: event counters inconsistent: %+v", trial, st)
		}
	}
}

// TestPlannerLeaveRenumbersLast pins the swap-remove contract callers
// follow: Join returns the last index, Leave moves the last client into the
// vacated index and reports the index it came from, so a reference list
// compacted the same way keeps naming every client (identified by its
// unique RT).
func TestPlannerLeaveRenumbersLast(t *testing.T) {
	rng := xrand.New(4242)
	p := randProblem(rng.Split(), 64)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	rt := func(i int) float64 { return 1e-3 * float64(1000+i) }
	var ref []float64 // dense index → the RT the client was admitted with
	for j := 0; j < p.NumClients(); j++ {
		// Tag the seed population through SetRT so every client is unique.
		if err := pl.SetRT(j, rt(j)); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, rt(j))
	}
	for step := 0; step < 200; step++ {
		if rng.IntN(2) == 0 {
			j, err := pl.Join(rng.IntN(p.NumZones), rt(100+step), randRow(rng, p.NumServers()))
			if err != nil {
				t.Fatal(err)
			}
			if j != len(ref) {
				t.Fatalf("step %d: join returned index %d, want %d", step, j, len(ref))
			}
			ref = append(ref, rt(100+step))
		} else if len(ref) > 1 {
			j, last := rng.IntN(len(ref)), len(ref)-1
			moved, err := pl.Leave(j)
			if err != nil {
				t.Fatal(err)
			}
			want := last
			if j == last {
				want = -1
			}
			if moved != want {
				t.Fatalf("step %d: Leave(%d) reported %d moved, want %d", step, j, moved, want)
			}
			ref[j] = ref[last]
			ref = ref[:last]
		}
		for j, want := range ref {
			if got := pl.Problem().ClientRT[j]; got != want {
				t.Fatalf("step %d: index %d holds RT %v, want %v", step, j, got, want)
			}
		}
	}
}

// TestPlannerDriftTriggersFullSolve arms a tight drift guard and batters
// the solution with adversarial delay updates until quality decays; the
// guard must fire and restore the baseline.
func TestPlannerDriftTriggersFullSolve(t *testing.T) {
	rng := xrand.New(99)
	p := randProblem(rng.Split(), 0)
	cfg := testConfig()
	cfg.DriftPQoS = 0.01
	pl, err := New(cfg, p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	initialSolves := pl.Stats().FullSolves
	if initialSolves != 1 {
		t.Fatalf("construction ran %d full solves, want 1", initialSolves)
	}
	far := make([]float64, p.NumServers())
	for i := range far {
		far[i] = 1e4 // no server can serve this client in bound
	}
	for h := 0; h < p.NumClients(); h++ {
		if err := pl.UpdateDelays(h, far); err != nil {
			t.Fatal(err)
		}
	}
	st := pl.Stats()
	if st.FullSolves <= initialSolves {
		t.Fatalf("drift guard never fired: %+v", st)
	}
	if st.LastDriftPQoS > cfg.DriftPQoS+0.5 {
		// After the final full solve, drift is measured against the new
		// baseline — it must have been re-anchored, not left unbounded.
		t.Fatalf("drift not re-anchored after full solve: %+v", st)
	}
	audit(t, pl)
}

// TestPlannerDisarmedGuardNeverFullSolves proves DriftPQoS = 0 leaves full
// solves entirely to the caller.
func TestPlannerDisarmedGuardNeverFullSolves(t *testing.T) {
	rng := xrand.New(123)
	p := randProblem(rng.Split(), 40)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		if _, err := pl.Join(rng.IntN(p.NumZones), 0.2, randRow(rng, p.NumServers())); err != nil {
			t.Fatal(err)
		}
	}
	if got := pl.Stats().FullSolves; got != 1 {
		t.Fatalf("disarmed planner ran %d full solves, want only the initial one", got)
	}
	if err := pl.FullSolve(); err != nil {
		t.Fatal(err)
	}
	if got := pl.Stats().FullSolves; got != 2 {
		t.Fatalf("explicit FullSolve not counted: %d", got)
	}
	audit(t, pl)
}

// TestFullSolveExportsGreCCounts: every full solve adds GreC's work-list
// size, its third choices and the late rows it read to the registry, so the
// share of late clients the two kept candidates place, and the share the
// late index spares a row read, are observable in production.
func TestFullSolveExportsGreCCounts(t *testing.T) {
	rng := xrand.New(321)
	p := randProblem(rng.Split(), 0)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pl.SetTelemetry(reg)
	const solves = 3
	for i := 0; i < solves; i++ {
		if err := pl.FullSolve(); err != nil {
			t.Fatal(err)
		}
	}
	// No churn in between, so each solve sees the same late list: the
	// clients beyond the bound at their zone's host.
	a, q := pl.Assignment(), pl.Problem()
	late := 0
	for j, z := range q.ClientZones {
		if q.CSAt(j, a.ZoneServer[z]) > q.D {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no late clients: the instance tests nothing")
	}
	gotLate := reg.Counter("dvecap_solve_late_clients_total", "").Value()
	if gotLate != uint64(solves*late) {
		t.Fatalf("dvecap_solve_late_clients_total = %d after %d solves with %d late clients each", gotLate, solves, late)
	}
	if got := reg.Counter("dvecap_solve_preference_rebuilds_total", "").Value(); got > gotLate {
		t.Fatalf("dvecap_solve_preference_rebuilds_total = %d exceeds the %d late clients", got, gotLate)
	}
	// Nor a delay write: every solve reuses the choices the opening solve
	// left in the late index, so none reads a late client's row.
	if got := reg.Counter("dvecap_solve_late_rows_read_total", "").Value(); got != 0 {
		t.Fatalf("dvecap_solve_late_rows_read_total = %d after %d solves with no delay written", got, solves)
	}
}

// TestPlannerDeterminism: same inputs, same seed ⇒ identical trajectories.
func TestPlannerDeterminism(t *testing.T) {
	run := func() (*core.Assignment, Stats) {
		rng := xrand.New(7)
		p := randProblem(rng.Split(), 50)
		cfg := testConfig()
		cfg.DriftPQoS = 0.05
		pl, err := New(cfg, p, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		live := make([]int, p.NumClients())
		for h := range live {
			live[h] = h
		}
		for step := 0; step < 50; step++ {
			switch rng.IntN(3) {
			case 0:
				h, err := pl.Join(rng.IntN(p.NumZones), rng.Uniform(0.05, 0.5), randRow(rng, p.NumServers()))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, h)
			case 1:
				if len(live) > 1 {
					i := rng.IntN(len(live))
					if _, err := pl.Leave(live[i]); err != nil {
						t.Fatal(err)
					}
					// The last client took the vacated index.
					live = live[:len(live)-1]
				}
			case 2:
				if len(live) > 0 {
					if err := pl.Move(live[rng.IntN(len(live))], rng.IntN(p.NumZones)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return pl.Assignment(), pl.Stats()
	}
	a1, s1 := run()
	a2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	for z := range a1.ZoneServer {
		if a1.ZoneServer[z] != a2.ZoneServer[z] {
			t.Fatalf("zone %d hosting differs", z)
		}
	}
	for j := range a1.ClientContact {
		if a1.ClientContact[j] != a2.ClientContact[j] {
			t.Fatalf("client %d contact differs", j)
		}
	}
}

// TestPlannerRejectsBadInput covers the validation surface.
func TestPlannerRejectsBadInput(t *testing.T) {
	rng := xrand.New(5)
	p := randProblem(rng.Split(), 8)
	if _, err := New(Config{}, p, rng.Split()); err == nil {
		t.Fatal("config without algorithm accepted")
	}
	if _, err := New(testConfig(), p, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	m := p.NumServers()
	if _, err := pl.Join(-1, 0.2, randRow(rng, m)); err == nil {
		t.Fatal("negative zone accepted")
	}
	if _, err := pl.Join(0, 0, randRow(rng, m)); err == nil {
		t.Fatal("zero RT accepted")
	}
	if _, err := pl.Join(0, 0.2, randRow(rng, m+1)); err == nil {
		t.Fatal("wrong-width delay row accepted")
	}
	if _, err := pl.Leave(10 * p.NumClients()); err == nil {
		t.Fatal("unknown index accepted")
	}
	if err := pl.Move(0, p.NumZones); err == nil {
		t.Fatal("out-of-range zone accepted")
	}
	if err := pl.UpdateDelays(0, randRow(rng, m-1)); err == nil {
		t.Fatal("wrong-width update accepted")
	}
	if err := pl.SetRT(0, -1); err == nil {
		t.Fatal("negative RT accepted")
	}
	if err := pl.RefreshZoneRT(p.NumZones, 1); err == nil {
		t.Fatal("out-of-range zone RT refresh accepted")
	}
}

// TestVerbsRefuseNonFiniteValues: each verb taking a bandwidth or a
// capacity refuses NaN, +Inf, 0 and −1 (FinitePos, as Machine.Commit and
// Validate do), leaving a planner that passes Audit and whose next full
// solve, which validates the problem, succeeds.
func TestVerbsRefuseNonFiniteValues(t *testing.T) {
	verbs := map[string]func(pl *Planner, v float64, row []float64) error{
		"Join": func(pl *Planner, v float64, row []float64) error { return second(pl.Join(0, v, row)) },
		"JoinBatch": func(pl *Planner, v float64, row []float64) error {
			return pl.JoinBatch([]int{0}, []float64{v}, [][]float64{row})
		},
		"SetRT":          func(pl *Planner, v float64, _ []float64) error { return pl.SetRT(0, v) },
		"RefreshZoneRT":  func(pl *Planner, v float64, _ []float64) error { return pl.RefreshZoneRT(pl.prob.ClientZones[0], v) },
		"AddServer":      func(pl *Planner, v float64, row []float64) error { return second(pl.AddServer(v, row, nil)) },
		"AddSpareServer": func(pl *Planner, v float64, row []float64) error { return second(pl.AddSpareServer(v, row, nil)) },
	}
	for name, verb := range verbs {
		for _, v := range []float64{math.NaN(), math.Inf(1), 0, -1} {
			rng := xrand.New(3300)
			pl, err := New(testConfig(), randProblem(rng.Split(), 0), rng.Split())
			if err != nil {
				t.Fatal(err)
			}
			if verb(pl, v, randRow(rng, pl.NumServers())) == nil {
				t.Fatalf("%s(%v) accepted", name, v)
			}
			audit(t, pl)
			if err := pl.FullSolve(); err != nil {
				t.Fatalf("%s(%v) refused, then the full solve failed: %v", name, v, err)
			}
		}
	}
}

// TestPlannerServerZoneCounts checks the inventory view against a direct
// count of ZoneHost, before and after churn and a drain.
func TestPlannerServerZoneCounts(t *testing.T) {
	rng := xrand.New(3400)
	p := randProblem(rng.Split(), 20)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		counts := pl.ServerZoneCounts()
		if len(counts) != pl.NumServers() {
			t.Fatalf("%s: %d counts for %d servers", when, len(counts), pl.NumServers())
		}
		want := make([]int, pl.NumServers())
		for z := 0; z < pl.NumZones(); z++ {
			want[pl.ZoneHost(z)]++
		}
		for i := range want {
			if counts[i] != want[i] {
				t.Fatalf("%s: server %d hosts %d zones, counts say %d", when, i, want[i], counts[i])
			}
		}
	}
	check("after solve")
	for step := 0; step < 20; step++ {
		if _, err := pl.Join(rng.IntN(p.NumZones), 0.2, randRow(rng, pl.NumServers())); err != nil {
			t.Fatal(err)
		}
		if err := pl.Move(rng.IntN(pl.NumClients()), rng.IntN(p.NumZones)); err != nil {
			t.Fatal(err)
		}
	}
	check("after churn")
	if err := pl.DrainServer(0); err != nil {
		t.Fatal(err)
	}
	check("after drain")
	if n := pl.ServerZoneCounts()[0]; n != 0 {
		t.Fatalf("drained server still hosts %d zones", n)
	}
}

// TestPlannerServerLoadMatchesAssignment checks the maintained per-server
// load against a recount from the planner's assignment.
func TestPlannerServerLoadMatchesAssignment(t *testing.T) {
	rng := xrand.New(3401)
	p := randProblem(rng.Split(), 30)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		switch step % 3 {
		case 0:
			if _, err := pl.Join(rng.IntN(p.NumZones), rng.Uniform(0.05, 0.5), randRow(rng, pl.NumServers())); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := pl.Move(rng.IntN(pl.NumClients()), rng.IntN(p.NumZones)); err != nil {
				t.Fatal(err)
			}
		default:
			if err := pl.UpdateDelays(rng.IntN(pl.NumClients()), randRow(rng, pl.NumServers())); err != nil {
				t.Fatal(err)
			}
		}
		want := pl.Assignment().ServerLoads(pl.Problem())
		for i, w := range want {
			if got := pl.ServerLoad(i); !close64(got, w) {
				t.Fatalf("step %d: server %d load %v, recount %v", step, i, got, w)
			}
		}
	}
}

// TestPlannerDriftMirrorsStats checks that Drift reports the guard inputs
// Stats records, and that a full solve re-anchors the pQoS drift to zero.
func TestPlannerDriftMirrorsStats(t *testing.T) {
	rng := xrand.New(3402)
	p := randProblem(rng.Split(), 40)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		if err := pl.UpdateDelays(rng.IntN(pl.NumClients()), randRow(rng, pl.NumServers())); err != nil {
			t.Fatal(err)
		}
		pq, spread := pl.Drift()
		st := pl.Stats()
		if pq != st.LastDriftPQoS || spread != st.LastUtilSpread {
			t.Fatalf("step %d: Drift = (%v, %v), Stats = (%v, %v)", step, pq, spread, st.LastDriftPQoS, st.LastUtilSpread)
		}
		if !close64(pq, st.BaselinePQoS-pl.Evaluator().PQoS()) {
			t.Fatalf("step %d: pQoS drift %v, baseline %v − current %v", step, pq, st.BaselinePQoS, pl.Evaluator().PQoS())
		}
	}
	if err := pl.FullSolve(); err != nil {
		t.Fatal(err)
	}
	if pq, _ := pl.Drift(); pq != 0 {
		t.Fatalf("pQoS drift %v after a full solve, want 0", pq)
	}
}

// TestPlannerAdjacencyVerbs checks SetAdjacency and AddAdjacency: each
// counts one edit, edits outside the zone range are refused, and the
// traffic reads agree with the graph — TrafficCut with a canonical cut
// summation, TrafficCost with TrafficWeight × TrafficCut, CrossEdges with
// a count over the edge list. Optimize keeps the planner consistent.
func TestPlannerAdjacencyVerbs(t *testing.T) {
	rng := xrand.New(3403)
	p := randProblem(rng.Split(), 0)
	p.TrafficWeight = 0.5
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if cut, total := pl.CrossEdges(); cut != 0 || total != 0 || pl.TrafficCut() != 0 {
		t.Fatalf("no graph: CrossEdges = %d/%d, TrafficCut = %v", cut, total, pl.TrafficCut())
	}
	n := pl.NumZones()
	edits := 0
	for e := 0; e < 3*n; e++ {
		a, b := rng.IntN(n), rng.IntN(n)
		if a == b {
			continue
		}
		if e%2 == 0 {
			err = pl.SetAdjacency(a, b, rng.Uniform(0.1, 4))
		} else {
			err = pl.AddAdjacency(a, b, rng.Uniform(0.1, 1))
		}
		if err != nil {
			t.Fatal(err)
		}
		edits++
	}
	if err := pl.SetAdjacency(0, n, 1); err == nil {
		t.Fatal("edge to a zone past the range accepted")
	}
	if got := pl.Stats().AdjacencyEdits; got != edits {
		t.Fatalf("AdjacencyEdits = %d, want %d", got, edits)
	}
	check := func(when string) {
		t.Helper()
		g := pl.Problem().Adjacency
		hosts := pl.ZoneServers()
		if want := g.CutWeight(hosts); !close64(pl.TrafficCut(), want) {
			t.Fatalf("%s: TrafficCut %v, canonical %v", when, pl.TrafficCut(), want)
		}
		if want := p.TrafficWeight * pl.TrafficCut(); !close64(pl.TrafficCost(), want) {
			t.Fatalf("%s: TrafficCost %v, want %v", when, pl.TrafficCost(), want)
		}
		wantCut, wantTotal := 0, 0
		for _, e := range g.Edges() {
			wantTotal++
			if hosts[e.A] != hosts[e.B] {
				wantCut++
			}
		}
		if cut, total := pl.CrossEdges(); cut != wantCut || total != wantTotal {
			t.Fatalf("%s: CrossEdges = %d/%d, want %d/%d", when, cut, total, wantCut, wantTotal)
		}
	}
	check("after edits")
	if pl.Optimize(0) != 0 {
		t.Fatal("Optimize(0) moved zones")
	}
	pl.Optimize(3)
	audit(t, pl)
	check("after Optimize")
}

// TestServerIndexOf checks the error-free lookup against ServerIndex, for
// every named server, an unknown name, and across a remove that renumbers
// the last server into the vacated index.
func TestServerIndexOf(t *testing.T) {
	b, _ := testIDBinding(t)
	pl := b.Planner()
	if err := b.NameTopology(Names("s", pl.NumServers()), Names("z", pl.NumZones())); err != nil {
		t.Fatal(err)
	}
	agree := func(when string) {
		t.Helper()
		for i, id := range b.ServerNames() {
			got, ok := b.ServerIndexOf(id)
			want, err := b.ServerIndex(id)
			if !ok || err != nil || got != want || got != i {
				t.Fatalf("%s: %q → (%d, %v), ServerIndex (%d, %v), dense %d", when, id, got, ok, want, err, i)
			}
		}
	}
	agree("named")
	if _, ok := b.ServerIndexOf("nope"); ok {
		t.Fatal("unknown server resolved")
	}
	last := b.ServerID(pl.NumServers() - 1)
	if err := b.DrainServer("s0"); err != nil {
		t.Fatal(err)
	}
	if err := b.RemoveServer("s0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.ServerIndexOf("s0"); ok {
		t.Fatal("removed server still resolves")
	}
	if i, ok := b.ServerIndexOf(last); !ok || i != 0 {
		t.Fatalf("last server %q at (%d, %v) after the swap-remove, want 0", last, i, ok)
	}
	agree("after remove")
}
