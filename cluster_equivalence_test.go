package dvecap

// Equivalence oracles for the Cluster-engine refactor: the pre-refactor
// Assign / AssignWithEstimationError / Session implementations are
// retained here verbatim (over the same internals they always used) and
// the adapter paths must reproduce them bit for bit — the same pattern as
// core's clone-and-rescore local-search oracle.

import (
	"fmt"
	"math"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/estimator"
	"dvecap/internal/repair"
	"dvecap/internal/xrand"
)

// legacyAssign is the pre-refactor Scenario.Assign.
func legacyAssign(s *Scenario, algorithm string) (*Result, error) {
	tp, ok := core.ByName(algorithm)
	if !ok {
		return nil, fmt.Errorf("dvecap: unknown algorithm %q (have %v)", algorithm, Algorithms())
	}
	truth := s.world.Problem()
	a, err := tp.Solve(s.rng.Split(), truth, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		return nil, err
	}
	m := core.Evaluate(truth, a)
	return &Result{
		Algorithm:     algorithm,
		PQoS:          m.PQoS,
		Utilization:   m.Utilization,
		WithQoS:       m.WithQoS,
		Clients:       truth.NumClients(),
		Delays:        m.Delays,
		ZoneServer:    a.ZoneServer,
		ClientContact: a.ClientContact,
	}, nil
}

// legacyAssignNoisy is the pre-refactor Scenario.AssignWithEstimationError.
func legacyAssignNoisy(s *Scenario, algorithm string, e float64) (*Result, error) {
	tp, ok := core.ByName(algorithm)
	if !ok {
		return nil, fmt.Errorf("dvecap: unknown algorithm %q (have %v)", algorithm, Algorithms())
	}
	truth := s.world.Problem()
	noisy, err := estimator.WithFactor(e).PerturbProblem(s.rng.Split(), truth)
	if err != nil {
		return nil, err
	}
	a, err := tp.Solve(s.rng.Split(), noisy, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		return nil, err
	}
	m := core.Evaluate(truth, a)
	return &Result{
		Algorithm:     algorithm,
		PQoS:          m.PQoS,
		Utilization:   m.Utilization,
		WithQoS:       m.WithQoS,
		Clients:       truth.NumClients(),
		Delays:        m.Delays,
		ZoneServer:    a.ZoneServer,
		ClientContact: a.ClientContact,
	}, nil
}

// legacySession is the pre-refactor Session: a repair planner bound to the
// world through repair.WorldBinding.
type legacySession struct {
	scn     *Scenario
	binding *repair.WorldBinding
	algo    string
}

func legacyStartSession(s *Scenario, algorithm string, driftPQoS float64) (*legacySession, error) {
	tp, ok := core.ByName(algorithm)
	if !ok {
		return nil, fmt.Errorf("dvecap: unknown algorithm %q (have %v)", algorithm, Algorithms())
	}
	if driftPQoS <= 0 {
		driftPQoS = 0.02
	}
	pl, err := repair.New(repair.Config{
		Algo:      tp,
		Opt:       core.Options{Overflow: core.SpillLargestResidual},
		DriftPQoS: driftPQoS,
	}, s.world.Problem(), s.rng.Split())
	if err != nil {
		return nil, err
	}
	return &legacySession{scn: s, binding: repair.BindWorld(pl, s.world), algo: algorithm}, nil
}

func (sess *legacySession) Join(n int) error {
	return sess.binding.Join(sess.scn.world.Join(sess.scn.rng.Split(), n))
}

func (sess *legacySession) Leave(n int) error {
	removed, err := sess.scn.world.Leave(sess.scn.rng.Split(), n)
	if err != nil {
		return err
	}
	return sess.binding.Leave(removed)
}

func (sess *legacySession) Move(n int) error {
	moved, err := sess.scn.world.Move(sess.scn.rng.Split(), n)
	if err != nil {
		return err
	}
	return sess.binding.Move(moved)
}

func (sess *legacySession) Resolve() error { return sess.binding.Planner().FullSolve() }

func (sess *legacySession) Result() (*Result, error) {
	pl := sess.binding.Planner()
	truth := sess.scn.world.Problem()
	handles := sess.binding.Handles()
	a := &core.Assignment{
		ZoneServer:    pl.ZoneServers(),
		ClientContact: make([]int, len(handles)),
	}
	for j, h := range handles {
		c, err := pl.Contact(h)
		if err != nil {
			return nil, err
		}
		a.ClientContact[j] = c
	}
	m := core.Evaluate(truth, a)
	return &Result{
		Algorithm:     sess.algo,
		PQoS:          m.PQoS,
		Utilization:   m.Utilization,
		WithQoS:       m.WithQoS,
		Clients:       truth.NumClients(),
		Delays:        m.Delays,
		ZoneServer:    a.ZoneServer,
		ClientContact: a.ClientContact,
	}, nil
}

func (sess *legacySession) Stats() repair.Stats { return sess.binding.Planner().Stats() }

// requireSameResult asserts bit-identical results (no tolerances: the two
// paths must run the exact same float operations in the same order).
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.Clients != want.Clients ||
		got.WithQoS != want.WithQoS || got.PQoS != want.PQoS ||
		got.Utilization != want.Utilization {
		t.Fatalf("%s: scalar mismatch:\ngot  %+v\nwant %+v", label,
			[]interface{}{got.Algorithm, got.Clients, got.WithQoS, got.PQoS, got.Utilization},
			[]interface{}{want.Algorithm, want.Clients, want.WithQoS, want.PQoS, want.Utilization})
	}
	if len(got.ZoneServer) != len(want.ZoneServer) {
		t.Fatalf("%s: %d zones vs %d", label, len(got.ZoneServer), len(want.ZoneServer))
	}
	for z := range got.ZoneServer {
		if got.ZoneServer[z] != want.ZoneServer[z] {
			t.Fatalf("%s: zone %d hosted on %d vs %d", label, z, got.ZoneServer[z], want.ZoneServer[z])
		}
	}
	if len(got.ClientContact) != len(want.ClientContact) || len(got.Delays) != len(want.Delays) {
		t.Fatalf("%s: client shape mismatch", label)
	}
	for j := range got.ClientContact {
		if got.ClientContact[j] != want.ClientContact[j] {
			t.Fatalf("%s: client %d contact %d vs %d", label, j, got.ClientContact[j], want.ClientContact[j])
		}
		if got.Delays[j] != want.Delays[j] && !(math.IsNaN(got.Delays[j]) && math.IsNaN(want.Delays[j])) {
			t.Fatalf("%s: client %d delay %v vs %v", label, j, got.Delays[j], want.Delays[j])
		}
	}
}

// TestAssignMatchesLegacyPath: the Cluster-engine adapter reproduces the
// pre-refactor Assign bit for bit, across algorithms and consecutive
// calls (which must consume the scenario's random stream identically).
func TestAssignMatchesLegacyPath(t *testing.T) {
	params := ScenarioParams{Seed: 17, Notation: "10s-30z-400c-200cp"}
	for _, algo := range Algorithms() {
		scnNew, err := NewScenario(params)
		if err != nil {
			t.Fatal(err)
		}
		scnOld, err := NewScenario(params)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 2; call++ {
			got, err := scnNew.Assign(algo)
			if err != nil {
				t.Fatalf("%s call %d: %v", algo, call, err)
			}
			want, err := legacyAssign(scnOld, algo)
			if err != nil {
				t.Fatalf("%s call %d (legacy): %v", algo, call, err)
			}
			requireSameResult(t, fmt.Sprintf("%s call %d", algo, call), got, want)
			if got.ClientIDs != nil {
				t.Fatalf("%s: scenario path unexpectedly populated ClientIDs", algo)
			}
		}
	}
}

// TestAssignWithEstimationErrorMatchesLegacyPath: same, for the noisy
// path (two rng splits per call, in perturb-then-solve order).
func TestAssignWithEstimationErrorMatchesLegacyPath(t *testing.T) {
	params := ScenarioParams{Seed: 23, Notation: "10s-30z-400c-200cp"}
	scnNew, err := NewScenario(params)
	if err != nil {
		t.Fatal(err)
	}
	scnOld, err := NewScenario(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{1.2, 2.0} {
		got, err := scnNew.AssignWithEstimationError("GreZ-GreC", e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacyAssignNoisy(scnOld, "GreZ-GreC", e)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("e=%v", e), got, want)
	}
	// Invalid factors must still fail (the estimator's validation).
	if _, err := scnNew.AssignWithEstimationError("GreZ-GreC", 0.5); err == nil {
		t.Fatal("factor < 1 accepted")
	}
	if _, err := scnNew.AssignWithEstimationError("GreZ-GreC", 0); err == nil {
		t.Fatal("factor 0 accepted")
	}
}

// TestStartSessionMatchesLegacyPath: the ClusterSession-backed Session
// replays the pre-refactor planner event sequence move for move —
// results, populations and repair counters all bit-identical under
// sustained churn, drift-guard solves included.
func TestStartSessionMatchesLegacyPath(t *testing.T) {
	params := ScenarioParams{Seed: 31, Servers: 8, Zones: 30, Clients: 500}
	scnNew, err := NewScenario(params)
	if err != nil {
		t.Fatal(err)
	}
	scnOld, err := NewScenario(params)
	if err != nil {
		t.Fatal(err)
	}
	sessNew, err := scnNew.StartSession("GreZ-GreC", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sessOld, err := legacyStartSession(scnOld, "GreZ-GreC", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	step := func(round int, name string, newErr, oldErr error) {
		t.Helper()
		if (newErr == nil) != (oldErr == nil) {
			t.Fatalf("round %d %s: error divergence: new %v, old %v", round, name, newErr, oldErr)
		}
	}
	for round := 0; round < 6; round++ {
		step(round, "join", sessNew.Join(30), sessOld.Join(30))
		step(round, "move", sessNew.Move(25), sessOld.Move(25))
		step(round, "leave", sessNew.Leave(20), sessOld.Leave(20))
		if sessNew.NumClients() != sessOld.binding.Planner().NumClients() {
			t.Fatalf("round %d: population %d vs %d", round, sessNew.NumClients(), sessOld.binding.Planner().NumClients())
		}
		gotRes, err := sessNew.Result()
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := sessOld.Result()
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("round %d", round), gotRes, wantRes)
		gotSt, wantSt := sessNew.Stats(), sessionStatsFrom(sessOld.Stats())
		if gotSt != wantSt {
			t.Fatalf("round %d: stats diverged:\nnew %+v\nold %+v", round, gotSt, wantSt)
		}
	}
	// Explicit full re-solves must stay in lockstep too.
	step(99, "resolve", sessNew.Resolve(), sessOld.Resolve())
	gotRes, err := sessNew.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := sessOld.Result()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "after resolve", gotRes, wantRes)
}

// TestClusterChurnMatchesDirectPlanner is the acceptance check for the
// public surface: a churn run driven entirely through the Cluster API —
// join, leave, move, UpdateDelays, all by string ID — must match a
// repair.Planner driven directly with the same events.
func TestClusterChurnMatchesDirectPlanner(t *testing.T) {
	const (
		servers = 6
		zones   = 15
		seed    = 77
	)
	rng := xrand.New(5000)
	ssRow := func() [][]float64 {
		ss := make([][]float64, servers)
		for i := range ss {
			ss[i] = make([]float64, servers)
		}
		for i := 0; i < servers; i++ {
			for l := i + 1; l < servers; l++ {
				d := 10 + 150*rng.Float64()
				ss[i][l], ss[l][i] = d, d
			}
		}
		return ss
	}
	ss := ssRow()
	row := func() []float64 {
		r := make([]float64, servers)
		for i := range r {
			r[i] = 5 + 300*rng.Float64()
		}
		return r
	}

	// Build the cluster through the public API…
	c := NewCluster(250)
	for i := 0; i < servers; i++ {
		if err := c.AddServer(fmt.Sprintf("srv-%d", i), ServerSpec{CapacityMbps: 400}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetServerRTTs(ss); err != nil {
		t.Fatal(err)
	}
	for z := 0; z < zones; z++ {
		if err := c.AddZone(fmt.Sprintf("zone-%d", z)); err != nil {
			t.Fatal(err)
		}
	}
	type seedClient struct {
		id   string
		zone int
		rt   float64
		row  []float64
	}
	var seedPop []seedClient
	for j := 0; j < 120; j++ {
		sc := seedClient{
			id:   fmt.Sprintf("cl-%d", j),
			zone: rng.IntN(zones),
			rt:   1 + rng.Float64(),
			row:  row(),
		}
		seedPop = append(seedPop, sc)
		if err := c.AddClient(sc.id, ClientSpec{
			Zone:          fmt.Sprintf("zone-%d", sc.zone),
			BandwidthMbps: sc.rt,
			RTTRow:        sc.row,
		}); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := c.Open("GreZ-GreC", WithSeed(seed), WithDriftGuard(0.02))
	if err != nil {
		t.Fatal(err)
	}

	// …and the identical problem for the directly driven planner.
	p := &core.Problem{
		ServerCaps: make([]float64, servers),
		NumZones:   zones,
		SS:         ss,
		D:          250,
	}
	for i := range p.ServerCaps {
		p.ServerCaps[i] = 400
	}
	for _, sc := range seedPop {
		p.ClientZones = append(p.ClientZones, sc.zone)
		p.ClientRT = append(p.ClientRT, sc.rt)
		p.CS = append(p.CS, append([]float64(nil), sc.row...))
	}
	tp, _ := core.ByName("GreZ-GreC")
	pl, err := repair.New(repair.Config{
		Algo:      tp,
		Opt:       core.Options{Overflow: core.SpillLargestResidual},
		DriftPQoS: 0.02,
	}, p, xrand.New(seed).Split())
	if err != nil {
		t.Fatal(err)
	}
	handleOf := map[string]int{}
	for j, sc := range seedPop {
		handleOf[sc.id] = j
	}

	live := append([]string(nil), c.ClientIDs()...)
	compare := func(stage string) {
		t.Helper()
		if got, want := sess.PQoS(), pl.PQoS(); got != want {
			t.Fatalf("%s: pQoS %v vs %v", stage, got, want)
		}
		if got, want := sess.NumClients(), pl.NumClients(); got != want {
			t.Fatalf("%s: population %d vs %d", stage, got, want)
		}
		for z := 0; z < zones; z++ {
			host, err := sess.ZoneHost(fmt.Sprintf("zone-%d", z))
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if want := fmt.Sprintf("srv-%d", pl.ZoneHost(z)); host != want {
				t.Fatalf("%s: zone %d hosted on %s vs %s", stage, z, host, want)
			}
		}
		for _, id := range live {
			cl, err := sess.Client(id)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			contact, err := pl.Contact(handleOf[id])
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if want := fmt.Sprintf("srv-%d", contact); cl.Contact != want {
				t.Fatalf("%s: client %s contact %s vs %s", stage, id, cl.Contact, want)
			}
			delay, err := pl.ClientDelay(handleOf[id])
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if cl.DelayMs != delay {
				t.Fatalf("%s: client %s delay %v vs %v", stage, id, cl.DelayMs, delay)
			}
		}
		gotSt, wantSt := sess.Stats(), sessionStatsFrom(pl.Stats())
		if gotSt != wantSt {
			t.Fatalf("%s: stats diverged:\nsession %+v\nplanner %+v", stage, gotSt, wantSt)
		}
	}
	compare("initial")

	next := len(seedPop)
	for round := 0; round < 5; round++ {
		// Joins.
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("cl-%d", next)
			next++
			zone := rng.IntN(zones)
			rt := 1 + rng.Float64()
			r := row()
			if err := sess.Join(id, ClientSpec{
				Zone:          fmt.Sprintf("zone-%d", zone),
				BandwidthMbps: rt,
				RTTRow:        r,
			}); err != nil {
				t.Fatal(err)
			}
			h, err := pl.Join(zone, rt, r)
			if err != nil {
				t.Fatal(err)
			}
			handleOf[id] = h
			live = append(live, id)
		}
		// Moves.
		for i := 0; i < 6; i++ {
			id := live[int(rng.IntN(len(live)))]
			zone := rng.IntN(zones)
			if err := sess.Move(id, fmt.Sprintf("zone-%d", zone)); err != nil {
				t.Fatal(err)
			}
			if err := pl.Move(handleOf[id], zone); err != nil {
				t.Fatal(err)
			}
		}
		// Measured-delay refreshes: full rows and partial overlays.
		for i := 0; i < 4; i++ {
			id := live[int(rng.IntN(len(live)))]
			if i%2 == 0 {
				r := row()
				if err := sess.UpdateDelayRow(id, r); err != nil {
					t.Fatal(err)
				}
				if err := pl.UpdateDelays(handleOf[id], r); err != nil {
					t.Fatal(err)
				}
			} else {
				srv := int(rng.IntN(servers))
				d := 5 + 300*rng.Float64()
				if err := sess.UpdateDelays(id, map[string]float64{fmt.Sprintf("srv-%d", srv): d}); err != nil {
					t.Fatal(err)
				}
				full := make([]float64, servers)
				idx, err := pl.Index(handleOf[id])
				if err != nil {
					t.Fatal(err)
				}
				copy(full, pl.Problem().CS[idx])
				full[srv] = d
				if err := pl.UpdateDelays(handleOf[id], full); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Leaves.
		for i := 0; i < 5; i++ {
			pick := int(rng.IntN(len(live)))
			id := live[pick]
			live = append(live[:pick], live[pick+1:]...)
			if err := sess.Leave(id); err != nil {
				t.Fatal(err)
			}
			if err := pl.Leave(handleOf[id]); err != nil {
				t.Fatal(err)
			}
			delete(handleOf, id)
		}
		compare(fmt.Sprintf("round %d", round))
	}

	// Forced full re-solve stays in lockstep.
	if err := sess.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := pl.FullSolve(); err != nil {
		t.Fatal(err)
	}
	compare("after resolve")
}
