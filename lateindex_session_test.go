package dvecap

import (
	"fmt"
	"reflect"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/director"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// TestResultEqualsEvaluate: Result() reads its metrics from the planner's
// evaluator; after every event of the durability suites' churn script, under
// every delay model, it must equal — reflect.DeepEqual, floats bit for bit —
// the from-scratch core.Evaluate it used to call.
func TestResultEqualsEvaluate(t *testing.T) {
	for _, model := range []DelayModel{DenseDelays, CoordDelays, SharedRowDelays} {
		t.Run(fmt.Sprint(model), func(t *testing.T) {
			s, err := durTestCluster(t, 11).Open("GreZ-GreC", WithSeed(7), WithDelayProvider(model),
				WithDriftGuard(0.03), WithImbalanceGuard(0.2))
			if err != nil {
				t.Fatal(err)
			}
			churn := newSessChurn(xrand.New(401))
			for e := 0; e <= 150; e++ {
				got, err := s.Result()
				if err != nil {
					t.Fatal(err)
				}
				pl := s.planner()
				p, a := pl.Problem(), pl.Assignment()
				want := newResult(s.m.Algo(), p, a, core.Evaluate(p, a), s.binding.DenseIDs())
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after %d events: Result() = %+v\nfrom-scratch evaluation gives %+v", e, got, want)
				}
				churn.run(t, s, 1)
			}
		})
	}
}

// costMatrixSources reads dvecap_solve_cost_matrix_total off a registry.
func costMatrixSources(reg *telemetry.Registry) (index, rows uint64) {
	const name = "dvecap_solve_cost_matrix_total"
	return reg.Counter(name, "", "source", core.CostMatrixFromIndex).Value(),
		reg.Counter(name, "", "source", core.CostMatrixFromRows).Value()
}

// TestSessionSolvesFromTheLateIndex pins what an operator reads on /metrics:
// every Resolve of an open session — with churn in between — builds its cost
// matrix from the late index the opening solve filled, and a session
// recovered after a kill counts from the rows again, once: the index is
// rebuilt, never restored. (The opening solve itself runs before the
// registry attaches, like dvecap_full_solves_total it is not counted.)
func TestSessionSolvesFromTheLateIndex(t *testing.T) {
	for _, model := range []DelayModel{DenseDelays, CoordDelays} {
		t.Run(fmt.Sprint(model), func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			s, err := durTestCluster(t, 11).Open("GreZ-GreC", WithSeed(7), WithDelayProvider(model),
				WithDurability(dir), WithSnapshotEvery(17), WithTelemetry(reg))
			if err != nil {
				t.Fatal(err)
			}
			churn := newSessChurn(xrand.New(401))
			for n := 1; n <= 4; n++ {
				churn.run(t, s, 15) // the script resolves now and then itself
				if err := s.Resolve(); err != nil {
					t.Fatal(err)
				}
				// Every full solve but the opening one, which filled the index.
				want := uint64(s.Stats().FullSolves - 1)
				if index, rows := costMatrixSources(reg); index != want || rows != 0 || want < uint64(n) {
					t.Fatalf("after %d Resolve()s: index=%d rows=%d, want %d and 0", n, index, rows, want)
				}
			}
			if err := s.Checkpoint(); err != nil { // nothing left to replay
				t.Fatal(err)
			}

			// Kill: no Close.
			reg2 := telemetry.NewRegistry()
			back, err := NewCluster(1).Open("GreZ-GreC", WithDurability(dir), WithTelemetry(reg2))
			if err != nil {
				t.Fatal(err)
			}
			for n := uint64(1); n <= 3; n++ {
				if err := back.Resolve(); err != nil {
					t.Fatal(err)
				}
				if index, rows := costMatrixSources(reg2); rows != 1 || index != n-1 {
					t.Fatalf("recovered session after %d Resolve()s: index=%d rows=%d, want %d and 1", n, index, rows, n-1)
				}
			}
			if err := back.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReassignMovedMatchesAssignmentDiff: Director.Reassign counts moved
// contacts against one saved contact vector; on a churned director that
// equals the diff of two full assignment copies it used to take.
func TestReassignMovedMatchesAssignmentDiff(t *testing.T) {
	dm := directorSurface(t, "dense").open(t, proofRun{churnSeed: 401}).(*directorMachine)
	d := dm.d
	total := 0
	for round := 0; round < 6; round++ {
		dm.run(t, 25)
		before := directorContacts(d)
		res, err := d.Reassign()
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for j, c := range directorContacts(d) {
			if c != before[j] {
				moved++
			}
		}
		if res.Moved != moved {
			t.Fatalf("round %d: Reassign reports %d moved contacts, the assignment diff has %d", round, res.Moved, moved)
		}
		total += moved
	}
	if total == 0 {
		t.Fatal("no reassign moved a contact: the count is untested")
	}
}

// directorContacts lists every client's contact server ID in snapshot
// (dense) order.
func directorContacts(d *director.Director) []string {
	snap := d.Snapshot()
	out := make([]string, len(snap))
	for j, c := range snap {
		out[j] = c.ContactID
	}
	return out
}
