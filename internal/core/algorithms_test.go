package core

import (
	"errors"
	"testing"
	"testing/quick"

	"dvecap/internal/xrand"
)

func TestInitialCostsTiny(t *testing.T) {
	p := tinyProblem()
	ci := InitialCosts(p)
	// CI[server][zone]: zone 0 on s0 → both clients within 100ms → 0;
	// zone 0 on s1 → both at 300ms → 2; zone 1 on s0 → 1; on s1 → 0.
	want := [][]int{{0, 1}, {2, 0}}
	for i := range want {
		for j := range want[i] {
			if ci[i][j] != want[i][j] {
				t.Fatalf("CI[%d][%d] = %d, want %d", i, j, ci[i][j], want[i][j])
			}
		}
	}
}

func TestRefinedCost(t *testing.T) {
	p := forwardingProblem()
	// c1, contact s1, target s0: 30 + 60 = 90 ≤ 100 → cost 0.
	if c := RefinedCost(p, 1, 1, 0); c != 0 {
		t.Fatalf("cost = %v, want 0", c)
	}
	// c1 direct to s0: 260 → cost 160.
	if c := RefinedCost(p, 1, 0, 0); c != 160 {
		t.Fatalf("cost = %v, want 160", c)
	}
	// c0, contact s1, target s0: 400+60-100 = 360.
	if c := RefinedCost(p, 0, 1, 0); c != 360 {
		t.Fatalf("cost = %v, want 360", c)
	}
}

func TestBuildDesirabilityOrdering(t *testing.T) {
	dl := buildDesirability(0, []float64{-3, 0, -1})
	if dl.servers[0] != 1 || dl.servers[1] != 2 || dl.servers[2] != 0 {
		t.Fatalf("order = %v", dl.servers)
	}
	if dl.regret != 1 { // 0 - (-1)
		t.Fatalf("regret = %v, want 1", dl.regret)
	}
}

func TestBuildDesirabilityTieBreaksByIndex(t *testing.T) {
	dl := buildDesirability(0, []float64{-1, -1, -1})
	if dl.servers[0] != 0 || dl.servers[1] != 1 || dl.servers[2] != 2 {
		t.Fatalf("tie order = %v, want index ascending", dl.servers)
	}
	if dl.regret != 0 {
		t.Fatalf("regret = %v, want 0", dl.regret)
	}
}

func TestSortByRegretOrder(t *testing.T) {
	lists := []desirabilityList{
		{item: 0, regret: 1},
		{item: 1, regret: 5},
		{item: 2, regret: 5},
		{item: 3, regret: 0},
	}
	sortByRegret(lists)
	wantItems := []int{1, 2, 0, 3}
	for i, w := range wantItems {
		if lists[i].item != w {
			t.Fatalf("position %d: item %d, want %d", i, lists[i].item, w)
		}
	}
}

func TestGreZFindsOptimalOnTiny(t *testing.T) {
	p := tinyProblem()
	target, err := GreZ(nil, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if target[0] != 0 || target[1] != 1 {
		t.Fatalf("GreZ target = %v, want [0 1]", target)
	}
	if IAPCost(p, target) != 0 {
		t.Fatal("GreZ missed the zero-cost assignment")
	}
}

func TestGreZRespectsCapacity(t *testing.T) {
	p := tinyProblem()
	// Shrink s0 so it can hold only one zone's load (zone0 RT=2, zone1 RT=1).
	p.ServerCaps = []float64{2, 10}
	target, err := GreZ(nil, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, 2)
	zrt := p.ZoneRT()
	for z, s := range target {
		loads[s] += zrt[z]
	}
	for i, l := range loads {
		if l > p.ServerCaps[i]+1e-9 {
			t.Fatalf("server %d overloaded: %v > %v", i, l, p.ServerCaps[i])
		}
	}
}

func TestGreZInfeasibleErrorAndSpill(t *testing.T) {
	p := tinyProblem()
	p.ServerCaps = []float64{0.5, 0.5} // nothing fits
	if _, err := GreZ(nil, p, Options{Overflow: ErrorOnOverflow}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	target, err := GreZ(nil, p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	for z, s := range target {
		if s < 0 || s > 1 {
			t.Fatalf("zone %d spilled to invalid server %d", z, s)
		}
	}
}

func TestRanZAssignsAllZonesWithinCapacity(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng.Split(), false)
		target, err := RanZ(rng.Split(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(target) != p.NumZones {
			t.Fatalf("assigned %d zones, want %d", len(target), p.NumZones)
		}
		loads := make([]float64, p.NumServers())
		zrt := p.ZoneRT()
		for z, s := range target {
			loads[s] += zrt[z]
		}
		for i, l := range loads {
			if l > p.ServerCaps[i]+1e-6 {
				t.Fatalf("server %d overloaded", i)
			}
		}
	}
}

func TestRanZLargestZoneFirstDeterministicOrder(t *testing.T) {
	sizes := []int{3, 9, 9, 1}
	order := zonesBySizeDesc(sizes)
	want := []int{1, 2, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRanZRequiresRNG(t *testing.T) {
	if _, err := RanZ(nil, tinyProblem(), Options{}); err == nil {
		t.Fatal("RanZ accepted nil RNG")
	}
}

func TestVirCSetsContactToTarget(t *testing.T) {
	p := tinyProblem()
	contact, err := VirC(nil, p, []int{1, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 0}
	for j := range want {
		if contact[j] != want[j] {
			t.Fatalf("contact = %v, want %v", contact, want)
		}
	}
}

func TestGreCUsesForwardingWhenItHelps(t *testing.T) {
	p := forwardingProblem()
	contact, err := GreC(nil, p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if contact[0] != 0 {
		t.Fatalf("near client rerouted to %d", contact[0])
	}
	if contact[1] != 1 {
		t.Fatalf("far client contact = %d, want forwarding via 1", contact[1])
	}
	a := &Assignment{ZoneServer: []int{0}, ClientContact: contact}
	if !a.HasQoS(p, 1) {
		t.Fatal("forwarded client still without QoS")
	}
}

func TestGreCFallsBackToTargetWhenNoCapacity(t *testing.T) {
	p := forwardingProblem()
	// s1 has no room for the 2×RT forwarding load (needs 2).
	p.ServerCaps = []float64{10, 1}
	contact, err := GreC(nil, p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if contact[1] != 0 {
		t.Fatalf("contact = %d, want target fallback 0", contact[1])
	}
}

func TestGreCKeepsDirectClientsDirect(t *testing.T) {
	p := tinyProblem()
	contact, err := GreC(nil, p, []int{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1}
	for j := range want {
		if contact[j] != want[j] {
			t.Fatalf("contact = %v, want %v", contact, want)
		}
	}
}

func TestGreCNeverOverloadsContactServers(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng.Split(), trial%2 == 0)
		target, err := GreZ(nil, p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatal(err)
		}
		contact, err := GreC(nil, p, target, Options{})
		if err != nil {
			t.Fatal(err)
		}
		a := &Assignment{ZoneServer: target, ClientContact: contact}
		// GreC must not add forwarding load beyond capacity, measured on
		// top of the zone loads it started from.
		loads := a.ServerLoads(p)
		zoneLoads := make([]float64, p.NumServers())
		for z, s := range target {
			zoneLoads[s] += p.ZoneRT()[z]
		}
		for i := range loads {
			extra := loads[i] - zoneLoads[i]
			if extra > 0 && loads[i] > p.ServerCaps[i]+1e-6 && zoneLoads[i] <= p.ServerCaps[i] {
				t.Fatalf("GreC pushed server %d over capacity with forwarding load", i)
			}
		}
	}
}

func TestTwoPhaseSolveAllAlgorithmsOnTiny(t *testing.T) {
	p := tinyProblem()
	for _, tp := range append(PaperAlgorithms(), DynZGreC) {
		rng := xrand.New(1)
		a, err := tp.Solve(rng, p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		if err := a.Validate(p); err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		m := Evaluate(p, a)
		if m.PQoS < 0 || m.PQoS > 1 {
			t.Fatalf("%s: pQoS out of range: %v", tp.Name, m.PQoS)
		}
	}
}

func TestGreZGreCOptimalOnTiny(t *testing.T) {
	p := tinyProblem()
	a, err := GreZGreC.Solve(xrand.New(1), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m := Evaluate(p, a); m.PQoS != 1.0 {
		t.Fatalf("GreZ-GreC pQoS = %v, want 1.0", m.PQoS)
	}
}

func TestGreCNeverHurtsVirC(t *testing.T) {
	// Given the same initial assignment, GreC's with-QoS count is ≥ VirC's:
	// direct clients keep their direct connection and only delay-violating
	// clients are rerouted (never to a worse effective delay than... no —
	// GreC can pick a contact whose cost is 0; if none exists the client was
	// already without QoS under VirC too).
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := randomProblem(rng.Split(), false)
		target, err := GreZ(nil, p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			return false
		}
		vc, _ := VirC(nil, p, target, Options{})
		gc, err := GreC(nil, p, target, Options{})
		if err != nil {
			return false
		}
		av := &Assignment{ZoneServer: target, ClientContact: vc}
		ag := &Assignment{ZoneServer: target, ClientContact: gc}
		return TotalCost(p, ag) >= TotalCost(p, av)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := randomProblem(xrand.New(31), false)
	for _, tp := range PaperAlgorithms() {
		a1, err1 := tp.Solve(xrand.New(9), p, Options{})
		a2, err2 := tp.Solve(xrand.New(9), p, Options{})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", tp.Name, err1, err2)
		}
		for z := range a1.ZoneServer {
			if a1.ZoneServer[z] != a2.ZoneServer[z] {
				t.Fatalf("%s: zone %d differs across identical runs", tp.Name, z)
			}
		}
		for j := range a1.ClientContact {
			if a1.ClientContact[j] != a2.ClientContact[j] {
				t.Fatalf("%s: client %d differs across identical runs", tp.Name, j)
			}
		}
	}
}

func TestByNameAndRegistry(t *testing.T) {
	for _, name := range []string{"RanZ-VirC", "RanZ-GreC", "GreZ-VirC", "GreZ-GreC", "DynZ-GreC"} {
		tp, ok := ByName(name)
		if !ok || tp.Name != name {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown algorithm resolved")
	}
	names := AlgorithmNames()
	// Paper's four + DynZ-GreC + the three related-work baselines.
	if len(names) != 8 {
		t.Fatalf("registry has %d algorithms, want 8: %v", len(names), names)
	}
}

func TestGreZDynamicMatchesCapacityInvariant(t *testing.T) {
	rng := xrand.New(55)
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng.Split(), trial%3 == 0)
		target, err := GreZDynamic(nil, p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatal(err)
		}
		if len(target) != p.NumZones {
			t.Fatalf("assigned %d zones, want %d", len(target), p.NumZones)
		}
		for z, s := range target {
			if s < 0 || s >= p.NumServers() {
				t.Fatalf("zone %d on invalid server %d", z, s)
			}
		}
	}
}

func TestGreZDynamicNotWorseThanStaticOnTiny(t *testing.T) {
	p := tinyProblem()
	st, _ := GreZ(nil, p, Options{})
	dy, _ := GreZDynamic(nil, p, Options{})
	if IAPCost(p, dy) > IAPCost(p, st) {
		t.Fatalf("dynamic regret worse than static on tiny: %d > %d",
			IAPCost(p, dy), IAPCost(p, st))
	}
}

func TestLocalSearchNeverWorsens(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := randomProblem(rng.Split(), false)
		a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			return false
		}
		improved := LocalSearch(p, a, 3)
		if err := improved.Validate(p); err != nil {
			return false
		}
		return TotalCost(p, improved) >= TotalCost(p, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSearchFixesBadZonePlacement(t *testing.T) {
	p := tinyProblem()
	// Deliberately wrong: both zones on s0, c2 without QoS.
	a := &Assignment{ZoneServer: []int{0, 0}, ClientContact: []int{0, 0, 0}}
	improved := LocalSearch(p, a, 5)
	if TotalCost(p, improved) != 3 {
		t.Fatalf("local search got %d with QoS, want 3", TotalCost(p, improved))
	}
}

func TestSolveValidatesProblem(t *testing.T) {
	p := tinyProblem()
	p.D = -1
	if _, err := GreZGreC.Solve(xrand.New(1), p, Options{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}
