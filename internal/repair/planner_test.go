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

// checkPlanner asserts the three properties the subsystem promises after
// any event sequence: the maintained solution is structurally feasible
// (every zone hosted, every client contacted, capacities respected), and
// the evaluator's incremental state — the late index included — matches a
// from-scratch evaluation of the same assignment on the same problem.
func checkPlanner(t *testing.T, pl *Planner) {
	t.Helper()
	p := pl.Problem()
	a := pl.Assignment()
	if err := p.Validate(); err != nil {
		t.Fatalf("planner problem invalid: %v", err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatalf("planner assignment invalid: %v", err)
	}
	if err := a.CheckCapacity(p, 1e-6); err != nil {
		t.Fatalf("planner solution violates capacity: %v", err)
	}
	m := core.Evaluate(p, a)
	ev := pl.Evaluator()
	if ev.WithQoS() != m.WithQoS {
		t.Fatalf("incremental withQoS = %d, from-scratch Evaluate gives %d", ev.WithQoS(), m.WithQoS)
	}
	if pl.PQoS() != m.PQoS {
		t.Fatalf("incremental pQoS = %v, from-scratch gives %v", pl.PQoS(), m.PQoS)
	}
	if !close64(pl.Utilization(), m.Utilization) {
		t.Fatalf("incremental utilization = %v, from-scratch gives %v", pl.Utilization(), m.Utilization)
	}
	for j := 0; j < p.NumClients(); j++ {
		if ev.ClientDelay(j) != m.Delays[j] {
			t.Fatalf("client %d incremental delay %v, from-scratch %v", j, ev.ClientDelay(j), m.Delays[j])
		}
	}
	loads := a.ServerLoads(p)
	for i, l := range loads {
		if !close64(ev.ServerLoad(i), l) {
			t.Fatalf("server %d incremental load %v, from-scratch %v", i, ev.ServerLoad(i), l)
		}
	}
	want := core.RAPCost(p, a)
	if !close64(ev.RAPCost(), want) {
		t.Fatalf("incremental RAP cost %v, from-scratch %v", ev.RAPCost(), want)
	}
	if err := pl.late.Verify(p); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerEquivalenceUnderChurn is the repair-vs-full-solve equivalence
// property: after any sequence of join/leave/move/delay-update events, the
// planner-maintained solution stays feasible and its evaluator state
// matches a from-scratch evaluation of the same assignment.
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
		checkPlanner(t, pl)
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
					if err := pl.Leave(live[i]); err != nil {
						t.Fatalf("trial %d step %d leave: %v", trial, step, err)
					}
					live[i] = live[len(live)-1]
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
			checkPlanner(t, pl)
			if got := pl.NumClients(); got != len(live) {
				t.Fatalf("trial %d step %d: planner population %d, live handles %d", trial, step, got, len(live))
			}
		}
		st := pl.Stats()
		if st.Events != st.Joins+st.Leaves+st.Moves+st.DelayUpdates {
			t.Fatalf("trial %d: event counters inconsistent: %+v", trial, st)
		}
	}
}

// TestPlannerHandlesAreStable proves handles survive the dense-index
// compaction of interleaved leaves: each handle keeps resolving to the
// client it was issued for (identified by its unique RT).
func TestPlannerHandlesAreStable(t *testing.T) {
	rng := xrand.New(4242)
	p := randProblem(rng.Split(), 64)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	rt := func(i int) float64 { return 1e-3 * float64(1000+i) }
	handles := map[int]float64{} // handle → the RT it was admitted with
	for j := 0; j < p.NumClients(); j++ {
		// Tag the seed population through SetRT so every client is unique.
		if err := pl.SetRT(j, rt(j)); err != nil {
			t.Fatal(err)
		}
		handles[j] = rt(j)
	}
	next := p.NumClients()
	for step := 0; step < 200; step++ {
		if rng.IntN(2) == 0 {
			h, err := pl.Join(rng.IntN(p.NumZones), rt(next), randRow(rng, p.NumServers()))
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := handles[h]; dup {
				t.Fatalf("step %d: handle %d issued twice while live", step, h)
			}
			handles[h] = rt(next)
			next++
		} else if len(handles) > 1 {
			var h int
			for h = range handles {
				break
			}
			if err := pl.Leave(h); err != nil {
				t.Fatal(err)
			}
			delete(handles, h)
			if _, err := pl.Contact(h); err == nil {
				t.Fatalf("step %d: released handle %d still resolves", step, h)
			}
		}
		for h, want := range handles {
			j, err := pl.Index(h)
			if err != nil {
				t.Fatalf("step %d: live handle %d: %v", step, h, err)
			}
			if got := pl.Problem().ClientRT[j]; got != want {
				t.Fatalf("step %d: handle %d resolves to RT %v, want %v", step, h, got, want)
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
	checkPlanner(t, pl)
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
	checkPlanner(t, pl)
}

// TestFullSolveExportsGreCCounts: every full solve adds GreC's work-list
// size and its preference-order rebuilds to the registry, so the share of
// late clients the two kept candidates place is observable in production.
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
					if err := pl.Leave(live[i]); err != nil {
						t.Fatal(err)
					}
					live[i] = live[len(live)-1]
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
	if err := pl.Leave(10 * p.NumClients()); err == nil {
		t.Fatal("unknown handle accepted")
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
