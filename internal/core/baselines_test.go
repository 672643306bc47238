package core

import (
	"errors"
	"math"
	"testing"

	"dvecap/internal/xrand"
)

func TestLoadZBalancesLoad(t *testing.T) {
	// Four equal zones, two equal servers → perfect 2/2 split.
	p := &Problem{
		ServerCaps:  []float64{10, 10},
		ClientZones: []int{0, 1, 2, 3},
		NumZones:    4,
		ClientRT:    []float64{1, 1, 1, 1},
		CS:          [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}},
		SS:          [][]float64{{0, 1}, {1, 0}},
		D:           100,
	}
	target, err := LoadZ(nil, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, s := range target {
		counts[s]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("unbalanced split: %v", target)
	}
}

func TestLoadZIgnoresDelays(t *testing.T) {
	// Two servers, one has terrible delays to everyone; LoadZ must still
	// balance across both (that is its defining flaw).
	p := tinyProblem()
	for j := range p.CS {
		p.CS[j][1] = 500 // server 1 unusable delay-wise
	}
	target, err := LoadZ(nil, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, s := range target {
		used[s] = true
	}
	if !used[0] || !used[1] {
		t.Fatalf("LoadZ should balance blindly, got %v", target)
	}
}

func TestLoadZInfeasiblePolicy(t *testing.T) {
	p := tinyProblem()
	p.ServerCaps = []float64{0.5, 0.5}
	if _, err := LoadZ(nil, p, Options{Overflow: ErrorOnOverflow}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if _, err := LoadZ(nil, p, Options{Overflow: SpillLargestResidual}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadZLargestZoneFirst(t *testing.T) {
	// One big zone (RT 8) and two small (RT 1 each); caps 9 and 3.
	// LPT: big → s0 (residual 9), then smalls → s1(3), s1? residual after
	// first small: s1=2 vs s0=1 → second small also s1.
	p := &Problem{
		ServerCaps:  []float64{9, 3},
		ClientZones: []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 2},
		NumZones:    3,
		ClientRT:    []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		CS:          make([][]float64, 10),
		SS:          [][]float64{{0, 1}, {1, 0}},
		D:           100,
	}
	for j := range p.CS {
		p.CS[j] = []float64{1, 1}
	}
	target, err := LoadZ(nil, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if target[0] != 0 {
		t.Fatalf("big zone on %d, want 0", target[0])
	}
	if target[1] != 1 || target[2] != 1 {
		t.Fatalf("small zones = %v, want both on 1", target[1:])
	}
}

func TestNearCPicksNearestFeasible(t *testing.T) {
	p := forwardingProblem()
	// c1: nearest server is s1 (30ms) — NearC picks it even though with
	// forwarding (30+60=90) it happens to also meet the bound here.
	contact, err := NearC(nil, p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if contact[0] != 0 || contact[1] != 1 {
		t.Fatalf("contact = %v, want [0 1]", contact)
	}
}

func TestNearCCanHurtWhenDetourIsLong(t *testing.T) {
	// Client is 240ms from its target (within D=250) but 200ms from
	// another server whose onward hop is 200ms: NearC reroutes to the
	// nearer ping and loses QoS; VirC keeps it direct and within bound.
	p := &Problem{
		ServerCaps:  []float64{10, 10},
		ClientZones: []int{0},
		NumZones:    1,
		ClientRT:    []float64{1},
		CS:          [][]float64{{240, 200}},
		SS:          [][]float64{{0, 200}, {200, 0}},
		D:           250,
	}
	contact, err := NearC(nil, p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := &Assignment{ZoneServer: []int{0}, ClientContact: contact}
	if contact[0] != 1 {
		t.Fatalf("contact = %v, want the nearer server 1", contact)
	}
	if a.ClientDelay(p, 0) <= p.D {
		t.Fatal("detour should have broken QoS — the baseline's defining flaw")
	}
	vc, _ := VirC(nil, p, []int{0}, Options{})
	av := &Assignment{ZoneServer: []int{0}, ClientContact: vc}
	if av.ClientDelay(p, 0) > p.D {
		t.Fatal("VirC should have kept QoS")
	}
}

func TestNearCRespectsCapacity(t *testing.T) {
	p := forwardingProblem()
	p.ServerCaps = []float64{10, 1} // no room for 2×RT on s1
	contact, err := NearC(nil, p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if contact[1] != 0 {
		t.Fatalf("contact = %v, want target fallback", contact[1])
	}
}

func TestBaselineCombosRegistered(t *testing.T) {
	for _, name := range []string{"LoadZ-VirC", "LoadZ-GreC", "GreZ-NearC"} {
		if _, ok := ByName(name); !ok {
			t.Fatalf("%s not registered", name)
		}
	}
	if len(BaselineAlgorithms()) != 5 {
		t.Fatalf("baseline set = %d", len(BaselineAlgorithms()))
	}
}

func TestBaselinesSolveRandomProblems(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 25; trial++ {
		p := randomProblem(rng.Split(), trial%2 == 0)
		for _, tp := range BaselineAlgorithms() {
			a, err := tp.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
			if err != nil {
				t.Fatalf("%s: %v", tp.Name, err)
			}
			m := Evaluate(p, a)
			if m.PQoS < 0 || m.PQoS > 1 || math.IsNaN(m.Utilization) {
				t.Fatalf("%s: bad metrics %+v", tp.Name, m)
			}
		}
	}
}

func TestGreZBeatsLoadZOnDelaySensitiveInstances(t *testing.T) {
	// On the tiny instance the delay-aware GreZ finds the zero-cost
	// assignment; blind balancing may or may not, but it can never beat it.
	p := tinyProblem()
	gz, _ := GreZ(nil, p, Options{})
	lz, _ := LoadZ(nil, p, Options{})
	if IAPCost(p, gz) > IAPCost(p, lz) {
		t.Fatalf("GreZ (%d) worse than LoadZ (%d)", IAPCost(p, gz), IAPCost(p, lz))
	}
}
