package core

import (
	"math"
	"testing"
)

func TestClientDelayDirectAndForwarded(t *testing.T) {
	p := forwardingProblem()
	a := &Assignment{ZoneServer: []int{0}, ClientContact: []int{0, 1}}
	if d := a.ClientDelay(p, 0); d != 50 {
		t.Fatalf("direct delay = %v, want 50", d)
	}
	if d := a.ClientDelay(p, 1); d != 90 { // 30 + 60 via s1
		t.Fatalf("forwarded delay = %v, want 90", d)
	}
	if a.ClientDelay(p, 0) > p.D || a.ClientDelay(p, 1) > p.D {
		t.Fatal("both clients should have QoS")
	}
}

func TestServerLoadsCountForwardingTwice(t *testing.T) {
	p := forwardingProblem()
	a := &Assignment{ZoneServer: []int{0}, ClientContact: []int{0, 1}}
	loads := a.ServerLoads(p)
	// s0 hosts the zone: RT(c0) + RT(c1) = 2. s1 forwards c1: 2×RT = 2.
	if loads[0] != 2 || loads[1] != 2 {
		t.Fatalf("loads = %v, want [2 2]", loads)
	}
}

func TestValidateAssignment(t *testing.T) {
	p := tinyProblem()
	a := &Assignment{ZoneServer: []int{-1, -1}, ClientContact: []int{-1, -1, -1}}
	if err := a.Validate(p); err == nil {
		t.Fatal("unset assignment accepted")
	}
	a = &Assignment{ZoneServer: []int{0, 1}, ClientContact: []int{0, 0, 1}}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	a.ZoneServer[0] = 7
	if err := a.Validate(p); err == nil {
		t.Fatal("out-of-range server accepted")
	}
}

func TestCheckCapacity(t *testing.T) {
	p := forwardingProblem()
	p.ServerCaps = []float64{1.5, 10} // zone load on s0 is 2 > 1.5
	a := &Assignment{ZoneServer: []int{0}, ClientContact: []int{0, 1}}
	if err := a.CheckCapacity(p, 0); err == nil {
		t.Fatal("overload not detected")
	}
	p.ServerCaps = []float64{2, 10}
	if err := a.CheckCapacity(p, 1e-9); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	p := tinyProblem()
	a := &Assignment{ZoneServer: []int{0, 1}, ClientContact: []int{0, 0, 1}}
	m := Evaluate(p, a)
	if m.WithQoS != 3 || m.PQoS != 1.0 {
		t.Fatalf("pQoS = %v (%d with QoS), want 1.0 (3)", m.PQoS, m.WithQoS)
	}
	// Loads: s0 = 2, s1 = 1; caps 10+10.
	if math.Abs(m.Utilization-0.15) > 1e-12 {
		t.Fatalf("R = %v, want 0.15", m.Utilization)
	}
	if m.MaxLoadRatio != 0.2 {
		t.Fatalf("MaxLoadRatio = %v, want 0.2", m.MaxLoadRatio)
	}
	if len(m.Delays) != 3 {
		t.Fatalf("Delays has %d entries", len(m.Delays))
	}
}

func TestEvaluateWorstAssignment(t *testing.T) {
	p := tinyProblem()
	// Host both zones on s0; c2 is 300ms from s0 → no QoS.
	a := &Assignment{ZoneServer: []int{0, 0}, ClientContact: []int{0, 0, 0}}
	m := Evaluate(p, a)
	if m.WithQoS != 2 {
		t.Fatalf("WithQoS = %d, want 2", m.WithQoS)
	}
	if math.Abs(m.PQoS-2.0/3.0) > 1e-12 {
		t.Fatalf("pQoS = %v", m.PQoS)
	}
}

func TestIAPCost(t *testing.T) {
	p := tinyProblem()
	if c := IAPCost(p, []int{0, 1}); c != 0 {
		t.Fatalf("optimal IAP cost = %d, want 0", c)
	}
	if c := IAPCost(p, []int{1, 0}); c != 3 {
		t.Fatalf("worst IAP cost = %d, want 3", c)
	}
	if c := IAPCost(p, []int{0, 0}); c != 1 {
		t.Fatalf("IAP cost = %d, want 1", c)
	}
}

func TestRAPCost(t *testing.T) {
	p := forwardingProblem()
	direct := &Assignment{ZoneServer: []int{0}, ClientContact: []int{0, 0}}
	// c1 direct: 260, excess 160.
	if c := RAPCost(p, direct); c != 160 {
		t.Fatalf("RAPCost = %v, want 160", c)
	}
	via := &Assignment{ZoneServer: []int{0}, ClientContact: []int{0, 1}}
	if c := RAPCost(p, via); c != 0 {
		t.Fatalf("RAPCost = %v, want 0", c)
	}
}

func TestAssignmentCloneIsDeep(t *testing.T) {
	a := &Assignment{ZoneServer: []int{0, 1}, ClientContact: []int{0, 1, 0}}
	b := a.Clone()
	b.ZoneServer[0] = 5
	b.ClientContact[0] = 5
	if a.ZoneServer[0] == 5 || a.ClientContact[0] == 5 {
		t.Fatal("Clone aliases parent")
	}
}
