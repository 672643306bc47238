package dvecap

// Equivalence oracles for the Scenario generator: a direct solve of the
// world's own problem (legacyAssign / legacyAssignNoisy, over internals
// only) is the reference the builder-built Scenario.Cluster() must
// reproduce bit for bit — the same pattern as core's clone-and-rescore
// local-search oracle.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/estimator"
	"dvecap/internal/repair"
	"dvecap/internal/xrand"
)

// legacyAssign solves the world's problem directly, on the scenario's stream.
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

// legacyAssignNoisy is legacyAssign against perturbed delays, evaluated on
// the true ones.
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

// TestAssignMatchesLegacyPath: the cluster the generator builds through the
// public builder solves to the direct solve of the world's problem bit for
// bit — across seeds, algorithms, consecutive calls (which must consume the
// scenario's random stream identically) and a Churn, which must drop the
// cached cluster.
func TestAssignMatchesLegacyPath(t *testing.T) {
	for _, seed := range []uint64{17, 18, 19} {
		params := ScenarioParams{Seed: seed, Notation: "10s-30z-400c-200cp"}
		for _, algo := range Algorithms() {
			scnNew, err := NewScenario(params)
			if err != nil {
				t.Fatal(err)
			}
			scnOld, err := NewScenario(params)
			if err != nil {
				t.Fatal(err)
			}
			for call := 0; call < 4; call++ {
				label := fmt.Sprintf("seed %d %s call %d", seed, algo, call)
				if call == 2 {
					if err := scnNew.Churn(30, 20, 25); err != nil {
						t.Fatal(err)
					}
					if err := scnOld.Churn(30, 20, 25); err != nil {
						t.Fatal(err)
					}
				}
				var got *Result
				if call%2 == 0 {
					got, err = scnNew.Assign(algo)
				} else {
					got, err = scnNew.Cluster().Solve(algo, withRNG(scnNew.rng))
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := legacyAssign(scnOld, algo)
				if err != nil {
					t.Fatalf("%s (legacy): %v", label, err)
				}
				requireSameResult(t, label, got, want)
				if len(got.ClientIDs) != got.Clients || got.ClientIDs[got.Clients-1] != fmt.Sprintf("c%d", got.Clients-1) {
					t.Fatalf("%s: client IDs are not c0… in world order: %v", label, got.ClientIDs)
				}
			}
			if scnNew.Cluster() != scnNew.Cluster() {
				t.Fatal("Cluster() rebuilt an unchanged population")
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

// TestScenarioOpenMatchesDirectPlanner: a session opened on the generated
// cluster starts from the solution a repair planner built directly on the
// world's problem reaches with the same stream, before and after a Churn.
func TestScenarioOpenMatchesDirectPlanner(t *testing.T) {
	params := ScenarioParams{Seed: 31, Servers: 8, Zones: 30, Clients: 500}
	scnNew, err := NewScenario(params)
	if err != nil {
		t.Fatal(err)
	}
	scnOld, err := NewScenario(params)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := core.ByName("GreZ-GreC")
	for _, stage := range []string{"fresh", "churned"} {
		if stage == "churned" {
			if err := scnNew.Churn(40, 40, 40); err != nil {
				t.Fatal(err)
			}
			if err := scnOld.Churn(40, 40, 40); err != nil {
				t.Fatal(err)
			}
		}
		sess, err := scnNew.Cluster().Open("GreZ-GreC", withRNG(scnNew.rng), WithDriftGuard(0.02))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Result()
		if err != nil {
			t.Fatal(err)
		}
		truth := scnOld.world.Problem()
		pl, err := repair.New(repair.Config{
			Algo:      tp,
			Opt:       core.Options{Overflow: core.SpillLargestResidual},
			DriftPQoS: 0.02,
		}, truth, scnOld.rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		a := &core.Assignment{ZoneServer: pl.ZoneServers(), ClientContact: make([]int, truth.NumClients())}
		for j := range a.ClientContact {
			a.ClientContact[j] = pl.Contact(j)
		}
		m := core.Evaluate(truth, a)
		requireSameResult(t, stage, got, &Result{
			Algorithm: "GreZ-GreC", PQoS: m.PQoS, Utilization: m.Utilization, WithQoS: m.WithQoS,
			Clients: truth.NumClients(), Delays: m.Delays, ZoneServer: a.ZoneServer, ClientContact: a.ClientContact,
		})
		if gotSt, wantSt := sess.Stats(), sessionStatsFrom(pl.Stats()); gotSt != wantSt {
			t.Fatalf("%s: stats diverged:\nsession %+v\nplanner %+v", stage, gotSt, wantSt)
		}
	}
}

// TestScenarioClusterSurvivesJSON: the generated cluster written as a spec
// and read back solves to the same result — it is an ordinary cluster.
func TestScenarioClusterSurvivesJSON(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Seed: 41, Notation: "10s-30z-400c-200cp"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scn.Cluster().WriteClusterJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadClusterJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		want, err := scn.Cluster().Solve(algo, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Solve(algo, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the spec read back solves differently:\n got %+v\nwant %+v", algo, got, want)
		}
	}
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
	seedIDs := make([]string, len(seedPop))
	for j, sc := range seedPop {
		seedIDs[j] = sc.id
	}
	b, err := repair.NewIDBinding(pl, seedIDs)
	if err != nil {
		t.Fatal(err)
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
			j, err := b.Index(id)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if want := fmt.Sprintf("srv-%d", pl.Contact(j)); cl.Contact != want {
				t.Fatalf("%s: client %s contact %s vs %s", stage, id, cl.Contact, want)
			}
			if delay := pl.ClientDelay(j); cl.DelayMs != delay {
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
			if err := b.Join(id, zone, rt, r); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		// Moves.
		for i := 0; i < 6; i++ {
			id := live[int(rng.IntN(len(live)))]
			zone := rng.IntN(zones)
			if err := sess.Move(id, fmt.Sprintf("zone-%d", zone)); err != nil {
				t.Fatal(err)
			}
			if err := b.Move(id, zone); err != nil {
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
				if err := b.UpdateDelays(id, r); err != nil {
					t.Fatal(err)
				}
			} else {
				srv := int(rng.IntN(servers))
				d := 5 + 300*rng.Float64()
				if err := sess.UpdateDelays(id, map[string]float64{fmt.Sprintf("srv-%d", srv): d}); err != nil {
					t.Fatal(err)
				}
				full := make([]float64, servers)
				if err := b.CopyDelays(id, full); err != nil {
					t.Fatal(err)
				}
				full[srv] = d
				if err := b.UpdateDelays(id, full); err != nil {
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
			if err := b.Leave(id); err != nil {
				t.Fatal(err)
			}
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
