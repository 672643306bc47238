package dvecap

import (
	"testing"
)

func TestSessionLifecycle(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{
		Seed: 21, Servers: 6, Zones: 20, Clients: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := scn.StartSession("GreZ-GreC", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sess.NumClients() != 300 {
		t.Fatalf("session starts with %d clients", sess.NumClients())
	}
	if err := sess.Join(50); err != nil {
		t.Fatal(err)
	}
	if err := sess.Leave(30); err != nil {
		t.Fatal(err)
	}
	if err := sess.Move(40); err != nil {
		t.Fatal(err)
	}
	if got, want := sess.NumClients(), 320; got != want {
		t.Fatalf("population %d after churn, want %d", got, want)
	}
	if got := scn.NumClients(); got != sess.NumClients() {
		t.Fatalf("scenario population %d diverged from session %d", got, sess.NumClients())
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != 320 || len(res.Delays) != 320 || len(res.ClientContact) != 320 {
		t.Fatalf("result shape wrong: %d clients, %d delays", res.Clients, len(res.Delays))
	}
	if res.PQoS < 0 || res.PQoS > 1 || res.Utilization < 0 {
		t.Fatalf("bad metrics: pQoS %v, R %v", res.PQoS, res.Utilization)
	}
	st := sess.Stats()
	if st.Joins != 50 || st.Leaves != 30 || st.Moves != 40 {
		t.Fatalf("stats miscount events: %+v", st)
	}
	if st.FullSolves < 1 {
		t.Fatalf("no initial full solve recorded: %+v", st)
	}
	before := st.FullSolves
	if err := sess.Resolve(); err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats().FullSolves; got != before+1 {
		t.Fatalf("Resolve not counted: %d → %d", before, got)
	}
}

func TestSessionRejectsUnknownAlgorithm(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Seed: 3, Servers: 4, Zones: 8, Clients: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scn.StartSession("made-up", 0); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestSessionQualityTracksFullResolve: after sustained churn, the repaired
// solution's quality must stay close to what a from-scratch re-solve of
// the same population achieves.
func TestSessionQualityTracksFullResolve(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{
		Seed: 9, Servers: 8, Zones: 30, Clients: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := scn.StartSession("GreZ-GreC", 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if err := sess.Join(40); err != nil {
			t.Fatal(err)
		}
		if err := sess.Leave(40); err != nil {
			t.Fatal(err)
		}
		if err := sess.Move(40); err != nil {
			t.Fatal(err)
		}
	}
	repaired, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := scn.Assign("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	if repaired.PQoS < resolved.PQoS-0.05 {
		t.Fatalf("repaired pQoS %.3f trails re-solved %.3f by more than 0.05",
			repaired.PQoS, resolved.PQoS)
	}
}
