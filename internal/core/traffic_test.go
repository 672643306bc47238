package core

// Tests of the inter-server traffic term (DESIGN.md §15): zero-weight
// bit-identity against the pre-traffic solver, cached-scan equivalence
// against the rescan oracle at every worker count, incremental cut
// maintenance under churn, state round-trips, and the term actually
// pulling interacting zones together.

import (
	"fmt"
	"math"
	"testing"

	"dvecap/internal/interact"
	"dvecap/internal/xrand"
)

// attachAdjacency wires a random interaction graph (about 2 edges per
// zone) and weight lambda into p.
func attachAdjacency(rng *xrand.RNG, p *Problem, lambda float64) {
	g := interact.New(p.NumZones)
	n := p.NumZones
	for e := 0; e < 2*n; e++ {
		a, b := rng.IntN(n), rng.IntN(n)
		if a == b {
			continue
		}
		if _, err := g.Set(a, b, rng.Uniform(0.1, 5)); err != nil {
			panic(err)
		}
	}
	p.Adjacency = g
	p.TrafficWeight = lambda
}

// initialAssignment produces a deterministic (possibly poor) starting
// solution: zones striped across servers, contacts on the target.
func initialAssignment(p *Problem) *Assignment {
	a := NewAssignment(p.NumZones, p.NumClients())
	m := p.NumServers()
	for z := range a.ZoneServer {
		a.ZoneServer[z] = z % m
	}
	for j, z := range p.ClientZones {
		a.ClientContact[j] = a.ZoneServer[z]
	}
	return a
}

// TestTrafficZeroWeightBitIdentical is the zero-value footgun guard: a
// problem carrying an adjacency graph with TrafficWeight 0 — and one
// carrying neither — must accept the exact same move sequences as the
// pre-traffic solver, at workers 1 and 4.
func TestTrafficZeroWeightBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, tight := range []bool{false, true} {
			rng := xrand.New(seed)
			base := randomProblem(rng, tight)
			withGraph := base.Clone()
			attachAdjacency(xrand.New(seed+100), withGraph, 0)

			a0 := initialAssignment(base)
			ref := LocalSearchOpt(base, a0.Clone(), 50, Options{})
			for _, workers := range []int{1, 4} {
				got := LocalSearchOpt(withGraph, a0.Clone(), 50, Options{Workers: workers})
				sameAssignment(t, fmt.Sprintf("seed %d tight %v workers %d", seed, tight, workers), ref, got)
			}
		}
	}
}

// TestTrafficCacheOracleEquivalence proves the cached traffic rows fold to
// the same accepted moves as the cache-free rescan oracle, and that the
// worker count never changes an outcome, with the term ACTIVE.
func TestTrafficCacheOracleEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, tight := range []bool{false, true} {
			rng := xrand.New(seed)
			p := randomProblem(rng, tight)
			attachAdjacency(xrand.New(seed+200), p, 0.5)
			a0 := initialAssignment(p)

			evOracle := NewEvaluator(p, a0.Clone())
			evOracle.localSearchRescan(50)
			want := evOracle.Assignment()

			for _, workers := range []int{1, 4} {
				ev := NewEvaluator(p, a0.Clone())
				ev.SetWorkers(workers)
				ev.LocalSearch(50)
				sameAssignment(t, fmt.Sprintf("seed %d tight %v workers %d", seed, tight, workers), want, ev.Assignment())
				if ev.TrafficCut() != evOracle.TrafficCut() {
					t.Fatalf("seed %d: cut %v (workers %d) vs oracle %v", seed, ev.TrafficCut(), workers, evOracle.TrafficCut())
				}
			}
		}
	}
}

// TestTrafficCutIncremental runs a churn storm — zone moves, contact
// switches, client churn, live adjacency edits — and checks the
// incrementally maintained cut against the canonical re-summation after
// every step, plus the cached dTraffic rows against the pure oracle.
func TestTrafficCutIncremental(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		p := randomProblem(rng, false)
		attachAdjacency(xrand.New(seed+300), p, 1.5)
		ev := NewEvaluator(p, initialAssignment(p))

		check := func(step int, what string) {
			t.Helper()
			want := p.Adjacency.CutWeight(ev.Assignment().ZoneServer)
			if !almostEq(ev.TrafficCut(), want) {
				t.Fatalf("seed %d step %d (%s): incremental cut %v, canonical %v", seed, step, what, ev.TrafficCut(), want)
			}
		}

		for step := 0; step < 300; step++ {
			n, m, k := p.NumZones, p.NumServers(), p.NumClients()
			switch rng.IntN(6) {
			case 0:
				ev.ApplyZoneMove(rng.IntN(n), rng.IntN(m))
				check(step, "zone move")
			case 1:
				if k > 0 {
					ev.ApplyContactSwitch(rng.IntN(k), rng.IntN(m))
					check(step, "contact switch")
				}
			case 2:
				a, b := rng.IntN(n), rng.IntN(n)
				if a != b {
					if err := ev.SetZoneAdjacency(a, b, rng.Uniform(0, 3)); err != nil {
						t.Fatal(err)
					}
					check(step, "set adjacency")
				}
			case 3:
				a, b := rng.IntN(n), rng.IntN(n)
				if a != b {
					if err := ev.AddZoneAdjacency(a, b, rng.Uniform(0.1, 1)); err != nil {
						t.Fatal(err)
					}
					check(step, "add adjacency")
				}
			case 4:
				if k > 1 {
					ev.MoveClient(rng.IntN(k), rng.IntN(n))
					check(step, "move client")
				}
			case 5:
				ev.LocalSearch(2)
				check(step, "local search")
			}
		}

		// Clean cached rows must hold the oracle's traffic deltas exactly. The
		// move the scan applied left its zone's row dirty and its neighbours'
		// traffic entries stale (their own dirty bit).
		ev.bestZoneMove()
		for z := 0; z < p.NumZones; z++ {
			if ev.cache.dirty[z] || ev.cache.tdirty[z] {
				continue
			}
			old := ev.zoneServer[z]
			for s := 0; s < p.NumServers(); s++ {
				if s == old {
					continue
				}
				want := ev.trafficMoveDelta(z, old, s)
				if got := ev.cache.dTraffic[z*ev.cache.servers+s]; got != want {
					t.Fatalf("seed %d: cached dTraffic[%d][%d] = %v, oracle %v", seed, z, s, got, want)
				}
			}
		}
	}
}

// TestTrafficTopologyLockstep exercises the zone/server dimension
// mutations with an active graph: AddZone + live edges, swap-removing
// zones (with edge retirement) and servers (host renumbering).
func TestTrafficTopologyLockstep(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		p := randomProblem(rng, false).Clone()
		attachAdjacency(xrand.New(seed+400), p, 1)
		ev := NewEvaluator(p, initialAssignment(p))

		check := func(what string) {
			t.Helper()
			if p.Adjacency.NumZones() != p.NumZones {
				t.Fatalf("seed %d (%s): graph covers %d zones, problem %d", seed, what, p.Adjacency.NumZones(), p.NumZones)
			}
			want := p.Adjacency.CutWeight(ev.Assignment().ZoneServer)
			if !almostEq(ev.TrafficCut(), want) {
				t.Fatalf("seed %d (%s): incremental cut %v, canonical %v", seed, what, ev.TrafficCut(), want)
			}
		}

		for step := 0; step < 60; step++ {
			n, m := p.NumZones, p.NumServers()
			switch rng.IntN(4) {
			case 0:
				z := ev.AddZone(rng.IntN(m))
				if z > 0 {
					if err := ev.SetZoneAdjacency(z, rng.IntN(z), rng.Uniform(0.5, 2)); err != nil {
						t.Fatal(err)
					}
				}
				check("add zone")
			case 1:
				// Remove an empty zone, if any.
				for z := 0; z < n; z++ {
					if len(ev.ZoneClients(z)) == 0 && n > 1 {
						ev.RemoveZone(z)
						break
					}
				}
				check("remove zone")
			case 2:
				ss := make([]float64, m)
				for i := range ss {
					ss[i] = rng.Uniform(1, 100)
				}
				cs := make([]float64, p.NumClients())
				for j := range cs {
					cs[j] = rng.Uniform(1, 400)
				}
				ev.AddServer(50, ss, cs)
				check("add server")
			case 3:
				ev.ApplyZoneMove(rng.IntN(n), rng.IntN(m))
				check("zone move")
			}
		}
	}
}

// TestTrafficStateRoundTrip: the incremental cut accumulator survives
// ExportState/RestoreState bit-identically, like the RAP cost.
func TestTrafficStateRoundTrip(t *testing.T) {
	rng := xrand.New(9)
	p := randomProblem(rng, false)
	attachAdjacency(xrand.New(909), p, 2)
	ev := NewEvaluator(p, initialAssignment(p))
	ev.LocalSearch(10)
	for step := 0; step < 40; step++ {
		ev.ApplyZoneMove(rng.IntN(p.NumZones), rng.IntN(p.NumServers()))
	}
	st := ev.ExportState()
	if st.TrafficCut != ev.TrafficCut() {
		t.Fatalf("export: %v vs %v", st.TrafficCut, ev.TrafficCut())
	}
	ev2 := NewEvaluator(p, ev.Assignment())
	if err := ev2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if ev2.TrafficCut() != ev.TrafficCut() {
		t.Fatalf("restore: cut %v, want bit-identical %v", ev2.TrafficCut(), ev.TrafficCut())
	}
}

// TestTrafficPullsZonesTogether: with interacting zone pairs split across
// two otherwise-indifferent servers, the traffic-aware search co-locates
// the pairs (cut → 0) while the delay-only search has no reason to move —
// the term changes outcomes exactly when it is supposed to.
func TestTrafficPullsZonesTogether(t *testing.T) {
	build := func(lambda float64) *Problem {
		// 4 zones, 2 servers, 8 clients; every delay 50 ms ≤ D, capacities
		// generous, so delay and load are indifferent to any hosting.
		k := 8
		p := &Problem{
			ServerCaps:  []float64{100, 100},
			ClientZones: []int{0, 0, 1, 1, 2, 2, 3, 3},
			NumZones:    4,
			ClientRT:    make([]float64, k),
			CS:          make([][]float64, k),
			SS:          [][]float64{{0, 10}, {10, 0}},
			D:           100,
		}
		for j := 0; j < k; j++ {
			p.ClientRT[j] = 1
			p.CS[j] = []float64{50, 50}
		}
		g := interact.New(4)
		g.Set(0, 1, 10)
		g.Set(2, 3, 10)
		p.Adjacency = g
		p.TrafficWeight = lambda
		return p
	}
	// Split hosting: both heavy pairs cut.
	split := &Assignment{ZoneServer: []int{0, 1, 0, 1}, ClientContact: []int{0, 0, 1, 1, 0, 0, 1, 1}}

	pOff := build(0)
	evOff := NewEvaluator(pOff, split.Clone())
	evOff.LocalSearch(20)
	if cut := TrafficCut(pOff, evOff.Assignment()); cut != 20 {
		t.Fatalf("delay-only search changed the cut: %v, want 20 (no incentive to move)", cut)
	}

	pOn := build(1)
	evOn := NewEvaluator(pOn, split.Clone())
	evOn.LocalSearch(20)
	if cut := TrafficCut(pOn, evOn.Assignment()); cut != 0 {
		t.Fatalf("traffic-aware search left cut %v, want 0", cut)
	}
	if evOn.WithQoS() != evOff.WithQoS() {
		t.Fatalf("traffic term changed QoS: %d vs %d", evOn.WithQoS(), evOff.WithQoS())
	}
	if evOn.TrafficCut() != 0 {
		t.Fatalf("incremental cut %v, want 0", evOn.TrafficCut())
	}
}

// TestTrafficValidate covers the Problem-level validation of the new
// fields.
func TestTrafficValidate(t *testing.T) {
	p := tinyProblem()
	p.Adjacency = interact.New(3) // wrong dimension
	if err := p.Validate(); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	p.Adjacency = interact.New(2)
	p.TrafficWeight = math.NaN()
	if err := p.Validate(); err == nil {
		t.Fatal("NaN weight accepted")
	}
	p.TrafficWeight = 1
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if !c.Adjacency.Equal(p.Adjacency) || c.TrafficWeight != 1 {
		t.Fatal("clone dropped traffic fields")
	}
	c.Adjacency.Set(0, 1, 3)
	if p.Adjacency.Weight(0, 1) != 0 {
		t.Fatal("clone aliases adjacency")
	}
}

// BenchmarkTrafficObjective measures the marginal cost of the traffic
// term: a full local search on the same instance with the term off and
// on (CI's bench-smoke leg tracks both).
func BenchmarkTrafficObjective(b *testing.B) {
	build := func(lambda float64) (*Problem, *Assignment) {
		rng := xrand.New(42)
		m, n, k := 8, 64, 2000
		p := &Problem{
			ServerCaps:  make([]float64, m),
			ClientZones: make([]int, k),
			NumZones:    n,
			ClientRT:    make([]float64, k),
			CS:          make([][]float64, k),
			SS:          make([][]float64, m),
			D:           150,
		}
		var total float64
		for j := 0; j < k; j++ {
			p.ClientZones[j] = rng.IntN(n)
			p.ClientRT[j] = rng.Uniform(0.05, 0.3)
			total += p.ClientRT[j]
			p.CS[j] = make([]float64, m)
			for i := range p.CS[j] {
				p.CS[j][i] = rng.Uniform(10, 400)
			}
		}
		for i := 0; i < m; i++ {
			p.SS[i] = make([]float64, m)
			p.ServerCaps[i] = total
			for l := 0; l < i; l++ {
				d := rng.Uniform(5, 80)
				p.SS[i][l], p.SS[l][i] = d, d
			}
		}
		if lambda > 0 {
			g := interact.New(n)
			for e := 0; e < 3*n; e++ {
				a, bb := rng.IntN(n), rng.IntN(n)
				if a != bb {
					g.Set(a, bb, rng.Uniform(0.1, 4))
				}
			}
			p.Adjacency = g
			p.TrafficWeight = lambda
		}
		return p, initialAssignment(p)
	}
	for _, mode := range []struct {
		name   string
		lambda float64
	}{{"off", 0}, {"on", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			p, a0 := build(mode.lambda)
			ev := NewEvaluator(p, a0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Reset(p, a0)
				ev.LocalSearch(30)
			}
		})
	}
}
