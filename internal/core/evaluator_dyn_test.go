package core

import (
	"testing"

	"dvecap/internal/xrand"
)

// checkDynState asserts the evaluator's derived state against a fresh
// evaluator built from the (mutated) problem and current assignment —
// the dynamic-methods analogue of checkEvaluatorState. The problem itself
// must pass the full Validate, every stored delay entry included: a
// planner's full solve no longer re-reads the entries (SolveOwned), so the
// mutators leaving them valid is proven here, after every event of every
// mutation suite.
func checkDynState(t *testing.T, ev *Evaluator) {
	t.Helper()
	p := ev.p
	if err := p.Validate(); err != nil {
		t.Fatalf("mutated problem invalid: %v", err)
	}
	a := ev.Assignment()
	fresh := NewEvaluator(p, a)
	if ev.WithQoS() != fresh.WithQoS() {
		t.Fatalf("withQoS = %d, fresh evaluator gives %d", ev.WithQoS(), fresh.WithQoS())
	}
	if !evalClose(ev.RAPCost(), fresh.RAPCost()) {
		t.Fatalf("rapCost = %v, fresh evaluator gives %v", ev.RAPCost(), fresh.RAPCost())
	}
	if !evalClose(ev.TotalLoad(), fresh.TotalLoad()) {
		t.Fatalf("totalLoad = %v, fresh evaluator gives %v", ev.TotalLoad(), fresh.TotalLoad())
	}
	for j := 0; j < p.NumClients(); j++ {
		if ev.ClientDelay(j) != fresh.ClientDelay(j) {
			t.Fatalf("client %d delay = %v, fresh gives %v", j, ev.ClientDelay(j), fresh.ClientDelay(j))
		}
	}
	for i := 0; i < p.NumServers(); i++ {
		if !evalClose(ev.ServerLoad(i), fresh.ServerLoad(i)) {
			t.Fatalf("server %d load = %v, fresh gives %v", i, ev.ServerLoad(i), fresh.ServerLoad(i))
		}
	}
	for z := 0; z < p.NumZones; z++ {
		if !evalClose(ev.zoneRT[z], fresh.zoneRT[z]) {
			t.Fatalf("zone %d RT = %v, fresh gives %v", z, ev.zoneRT[z], fresh.zoneRT[z])
		}
	}
	// The membership index must be a permutation-consistent inverse pair.
	seen := 0
	for z := 0; z < p.NumZones; z++ {
		for pos, j := range ev.zoneMembers[z] {
			seen++
			if p.ClientZones[j] != z {
				t.Fatalf("client %d indexed in zone %d but lives in %d", j, z, p.ClientZones[j])
			}
			if ev.posInZone[j] != pos {
				t.Fatalf("client %d posInZone = %d, bucket says %d", j, ev.posInZone[j], pos)
			}
		}
	}
	if seen != p.NumClients() {
		t.Fatalf("membership index covers %d clients, problem has %d", seen, p.NumClients())
	}
}

// randomDelayRow draws a fresh CS row for joins and delay updates.
func randomDelayRow(rng *xrand.RNG, m int) []float64 {
	row := make([]float64, m)
	for i := range row {
		row[i] = rng.Uniform(0, 500)
	}
	return row
}

// TestEvaluatorDynMatchesFresh drives the evaluator through long random
// churn sequences — joins, leaves, moves, delay updates, RT updates,
// greedy contact re-placement and seeded zone improvement — and checks all
// derived state against a from-scratch evaluator after every event.
func TestEvaluatorDynMatchesFresh(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := xrand.New(uint64(2400 + trial))
		p := randomProblem(rng.Split(), trial%3 == 0).Clone()
		a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ev := NewEvaluator(p, a)
		m := p.NumServers()
		for step := 0; step < 80; step++ {
			switch k := ev.NumClients(); rng.IntN(6) {
			case 0:
				ev.AddClient(rng.IntN(p.NumZones), rng.Uniform(0.05, 0.5), randomDelayRow(rng, m))
			case 1:
				if k > 1 {
					ev.RemoveClient(rng.IntN(k))
				}
			case 2:
				if k > 0 {
					ev.MoveClient(rng.IntN(k), rng.IntN(p.NumZones))
				}
			case 3:
				if k > 0 {
					ev.SetClientDelays(rng.IntN(k), randomDelayRow(rng, m))
				}
			case 4:
				if k > 0 {
					ev.SetClientRT(rng.IntN(k), rng.Uniform(0.05, 0.5))
				}
			case 5:
				if k > 0 && rng.IntN(2) == 0 {
					ev.GreedyContact(rng.IntN(k))
				} else {
					ev.ImproveZone(rng.IntN(p.NumZones))
				}
			}
			checkDynState(t, ev)
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d step %d: mutated problem invalid: %v", trial, step, err)
			}
		}
	}
}

// TestEvaluatorAddRemoveRoundTrip checks that adding then removing the same
// client restores every derived quantity.
func TestEvaluatorAddRemoveRoundTrip(t *testing.T) {
	rng := xrand.New(88)
	p := randomProblem(rng.Split(), false).Clone()
	a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(p, a)
	wantQoS, wantRAP, wantLoad := ev.WithQoS(), ev.RAPCost(), ev.TotalLoad()
	k := ev.NumClients()
	j := ev.AddClient(0, 0.25, randomDelayRow(rng, p.NumServers()))
	if j != k {
		t.Fatalf("AddClient returned index %d, want %d", j, k)
	}
	ev.RemoveClient(j)
	if ev.NumClients() != k {
		t.Fatalf("population %d after round trip, want %d", ev.NumClients(), k)
	}
	if ev.WithQoS() != wantQoS || !evalClose(ev.RAPCost(), wantRAP) || !evalClose(ev.TotalLoad(), wantLoad) {
		t.Fatalf("round trip drifted: qos %d→%d rap %v→%v load %v→%v",
			wantQoS, ev.WithQoS(), wantRAP, ev.RAPCost(), wantLoad, ev.TotalLoad())
	}
	checkDynState(t, ev)
}

// TestGreedyContactMatchesAttachSemantics pins the two attach rules: a
// client within the bound of its target connects directly; one outside it
// forwards through the feasible contact minimising effective delay.
func TestGreedyContactMatchesAttachSemantics(t *testing.T) {
	p := forwardingProblem().Clone()
	a := &Assignment{ZoneServer: []int{0}, ClientContact: []int{0, 0}}
	ev := NewEvaluator(p, a)
	if ev.GreedyContact(0) {
		t.Fatal("near client switched away from its in-bound target")
	}
	if !ev.GreedyContact(1) {
		t.Fatal("far client did not switch")
	}
	if got := ev.Contact(1); got != 1 {
		t.Fatalf("far client contact = %d, want forwarding via server 1", got)
	}
	if d := ev.ClientDelay(1); d != 90 {
		t.Fatalf("far client delay = %v, want 90", d)
	}
	checkDynState(t, ev)
}

// TestImproveZoneRepairsBadHosting seeds a zone on the wrong server and
// checks the localized scan rehomes it.
func TestImproveZoneRepairsBadHosting(t *testing.T) {
	p := tinyProblem().Clone()
	// Host both zones on s1: z0's clients (near s0) lose QoS.
	a := &Assignment{ZoneServer: []int{1, 1}, ClientContact: []int{1, 1, 1}}
	ev := NewEvaluator(p, a)
	if !ev.ImproveZone(0) {
		t.Fatal("no improving move found for mis-hosted zone")
	}
	if got := ev.ZoneHost(0); got != 0 {
		t.Fatalf("zone 0 hosted on %d, want 0", got)
	}
	if ev.WithQoS() != 3 {
		t.Fatalf("withQoS = %d, want 3", ev.WithQoS())
	}
	checkDynState(t, ev)
}
