package dvecap

// Whole-system integration test: every major subsystem in one flow —
// scenario construction, assignment, churn, noisy re-assignment, flow-level
// validation, cluster-spec serialisation and reload.

import (
	"bytes"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/flowsim"
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

	// 4. Noisy assignment must stay within sane bounds of the perfect one.
	noisy, err := scn.AssignWithEstimationError("GreZ-GreC", 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.PQoS < after.PQoS-0.25 {
		t.Fatalf("King-level noise destroyed quality: %v vs %v", noisy.PQoS, after.PQoS)
	}

	// 5. Flow-level validation of the facade's assignment.
	truth := scn.world.Problem()
	a := &core.Assignment{ZoneServer: after.ZoneServer, ClientContact: after.ClientContact}
	fres, err := flowsim.Simulate(truth, a, flowsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fres.AnalyticPQoS != after.PQoS {
		t.Fatalf("flowsim analytic %v disagrees with facade %v", fres.AnalyticPQoS, after.PQoS)
	}

	// 6. Write the churned population as a cluster spec and read it back.
	c := scn.Cluster()
	var buf bytes.Buffer
	if err := c.WriteClusterJSON(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ReadClusterJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.NumClients() != truth.NumClients() || reloaded.NumZones() != truth.NumZones {
		t.Fatal("reloaded spec shape differs")
	}

	// 7. The reloaded spec solves to the identical result under the same
	// seed (full-pipeline determinism).
	want, err := c.Solve("GreZ-GreC", WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := reloaded.Solve("GreZ-GreC", WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "original vs reloaded spec", got, want)
}
