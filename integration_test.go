package dvecap

// Whole-system integration test: every major subsystem in one flow —
// scenario construction, assignment, churn, noisy re-assignment, migration
// accounting, flow-level validation, world serialisation and reload.

import (
	"bytes"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/flowsim"
	"dvecap/internal/xrand"
)

func TestEndToEndLifecycle(t *testing.T) {
	// 1. Build a mid-sized scenario through the public facade.
	scn, err := NewScenario(ScenarioParams{Seed: 1234, Notation: "10s-30z-400c-200cp"})
	if err != nil {
		t.Fatal(err)
	}

	// 2. Assign with the paper's best algorithm; sanity-check quality.
	before, err := scn.Assign("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	if before.PQoS < 0.5 {
		t.Fatalf("implausibly low initial pQoS %v", before.PQoS)
	}

	// 3. Churn the population (the paper's Table 3 protocol, scaled).
	if err := scn.Churn(80, 80, 80); err != nil {
		t.Fatal(err)
	}
	after, err := scn.Assign("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	if after.Clients != 400 {
		t.Fatalf("population after churn = %d", after.Clients)
	}

	// 4. Migration accounting between the two assignments' zone maps via a
	// sticky re-solve: sticky must move no more zones than the fresh one.
	truth := scn.world.Problem()
	freshTargets, err := core.GreZ(nil, truth, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	stickyTargets, err := core.StickyGreZ(before.ZoneServer, 1.5)(nil, truth, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	movesOf := func(to []int) int {
		n := 0
		for z := range before.ZoneServer {
			if before.ZoneServer[z] != to[z] {
				n++
			}
		}
		return n
	}
	if movesOf(stickyTargets) > movesOf(freshTargets) {
		t.Fatalf("sticky moved more zones (%d) than fresh (%d)",
			movesOf(stickyTargets), movesOf(freshTargets))
	}

	// 5. Noisy assignment must stay within sane bounds of the perfect one.
	noisy, err := scn.AssignWithEstimationError("GreZ-GreC", 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.PQoS < after.PQoS-0.25 {
		t.Fatalf("King-level noise destroyed quality: %v vs %v", noisy.PQoS, after.PQoS)
	}

	// 6. Flow-level validation of the facade's assignment.
	a := &core.Assignment{ZoneServer: after.ZoneServer, ClientContact: after.ClientContact}
	fres, err := flowsim.Simulate(truth, a, flowsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fres.AnalyticPQoS != after.PQoS {
		t.Fatalf("flowsim analytic %v disagrees with facade %v", fres.AnalyticPQoS, after.PQoS)
	}

	// 7. Serialise the world, reload it, and confirm the problem is
	// bit-identical (delays are derived deterministically).
	var buf bytes.Buffer
	if err := scn.world.WriteJSON(&buf, 500, 0.5); err != nil {
		t.Fatal(err)
	}
	reloaded, err := dve.ReadWorldJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2 := reloaded.Problem()
	if p2.NumClients() != truth.NumClients() || p2.NumZones != truth.NumZones {
		t.Fatal("reloaded world shape differs")
	}
	for j := range truth.CS {
		for i := range truth.CS[j] {
			if truth.CS[j][i] != p2.CS[j][i] {
				t.Fatalf("reloaded CS[%d][%d] differs", j, i)
			}
		}
	}

	// 8. The reloaded world solves to the identical assignment under the
	// same seed (full-pipeline determinism).
	a1, err := core.GreZGreC.Solve(xrand.New(9), truth, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.GreZGreC.Solve(xrand.New(9), p2, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	for z := range a1.ZoneServer {
		if a1.ZoneServer[z] != a2.ZoneServer[z] {
			t.Fatalf("zone %d differs between original and reloaded world", z)
		}
	}
	for j := range a1.ClientContact {
		if a1.ClientContact[j] != a2.ClientContact[j] {
			t.Fatalf("contact %d differs between original and reloaded world", j)
		}
	}
}
