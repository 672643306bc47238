package core

import (
	"testing"

	"dvecap/internal/xrand"
)

// TestEvaluatorMatchesFullEvaluation drives the evaluator through long
// randomized move sequences — zone moves and contact switches, including
// capacity-violating ones on tight (spill/overload) instances — and checks
// the incremental state against full re-evaluation after every move.
func TestEvaluatorMatchesFullEvaluation(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := xrand.New(uint64(1000 + trial))
		tight := trial%2 == 0
		p := randomProblem(rng.Split(), tight)
		a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ev := NewEvaluator(p, a)
		audit(t, ev)
		m := p.NumServers()
		for step := 0; step < 60; step++ {
			if rng.IntN(2) == 0 {
				z := rng.IntN(p.NumZones)
				s := rng.IntN(m)
				want := ev.zoneMoveScore(z, s)
				ev.ApplyZoneMove(z, s)
				if s != ev.zoneServer[z] {
					t.Fatalf("zone move not applied")
				}
				got := ev.score()
				if got.withQoS != want.withQoS || !auditClose(got.rapCost, want.rapCost) || !auditClose(got.load, want.load) {
					t.Fatalf("trial %d step %d: zoneMoveScore predicted %+v, apply gave %+v",
						trial, step, want, got)
				}
			} else {
				j := rng.IntN(p.NumClients())
				ev.ApplyContactSwitch(j, rng.IntN(m))
			}
			audit(t, ev)
		}
	}
}

// TestEvaluatorReset proves a reused evaluator is indistinguishable from a
// fresh one across problems of different shapes.
func TestEvaluatorReset(t *testing.T) {
	ev := &Evaluator{}
	for trial := 0; trial < 20; trial++ {
		rng := xrand.New(uint64(7000 + trial))
		p := randomProblem(rng.Split(), trial%3 == 0)
		a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ev.Reset(p, a)
		fresh := NewEvaluator(p, a)
		if ev.WithQoS() != fresh.WithQoS() || ev.RAPCost() != fresh.RAPCost() || ev.TotalLoad() != fresh.TotalLoad() {
			t.Fatalf("trial %d: reused evaluator differs from fresh", trial)
		}
		audit(t, ev)
		ev.LocalSearch(2)
		audit(t, ev)
	}
}

// TestLocalSearchMatchesOracle proves move-for-move equivalence of the
// incremental local search with the retained clone-and-rescore oracle: for
// every round budget the two accept the same moves, so the assignments —
// zone hosting and client contacts — are identical, on generous and tight
// (spilled, overloaded) instances alike.
func TestLocalSearchMatchesOracle(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := xrand.New(uint64(4000 + trial))
		tight := trial%2 == 1
		p := randomProblem(rng.Split(), tight)
		start, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, rounds := range []int{1, 2, 4} {
			got := LocalSearch(p, start, rounds)
			want := localSearchOracle(p, start, rounds)
			for z := range want.ZoneServer {
				if got.ZoneServer[z] != want.ZoneServer[z] {
					t.Fatalf("trial %d rounds %d: zone %d hosted on %d, oracle %d",
						trial, rounds, z, got.ZoneServer[z], want.ZoneServer[z])
				}
			}
			for j := range want.ClientContact {
				if got.ClientContact[j] != want.ClientContact[j] {
					t.Fatalf("trial %d rounds %d: client %d contact %d, oracle %d",
						trial, rounds, j, got.ClientContact[j], want.ClientContact[j])
				}
			}
		}
	}
}

// TestLocalSearchOracleNeverWorsens keeps the oracle itself honest.
func TestLocalSearchOracleNeverWorsens(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := xrand.New(uint64(9000 + trial))
		p := randomProblem(rng.Split(), false)
		a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		improved := localSearchOracle(p, a, 3)
		if TotalCost(p, improved) < TotalCost(p, a) {
			t.Fatalf("trial %d: oracle worsened QoS", trial)
		}
	}
}

// TestWorkspaceReuseMatchesFresh proves that solving with a reused
// Workspace yields bit-identical assignments to scratch-free solving, and
// that Workspace.EvaluateInto matches Evaluate.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	ws := NewWorkspace()
	var reusedMetrics Metrics
	for trial := 0; trial < 30; trial++ {
		rng := xrand.New(uint64(5000 + trial))
		p := randomProblem(rng.Split(), trial%2 == 0)
		for ti, tp := range []TwoPhase{GreZGreC, DynZGreC, RanZGreC, GreZVirC, RanZVirC} {
			solveSeed := uint64(5000*trial + ti)
			plain, err1 := tp.Solve(xrand.New(solveSeed), p, Options{Overflow: SpillLargestResidual})
			reused, err2 := tp.Solve(xrand.New(solveSeed), p, Options{Overflow: SpillLargestResidual, Scratch: ws})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d %s: error mismatch %v vs %v", trial, tp.Name, err1, err2)
			}
			if err1 != nil {
				continue
			}
			d := Diff(p, plain, reused)
			if d.ZoneMoves != 0 || d.ContactMoves != 0 {
				t.Fatalf("trial %d %s: workspace-reusing solve differs: %+v", trial, tp.Name, d)
			}
			want := Evaluate(p, plain)
			ws.EvaluateInto(p, reused, &reusedMetrics)
			if want.WithQoS != reusedMetrics.WithQoS || want.PQoS != reusedMetrics.PQoS ||
				!auditClose(want.Utilization, reusedMetrics.Utilization) ||
				!auditClose(want.MaxLoadRatio, reusedMetrics.MaxLoadRatio) {
				t.Fatalf("trial %d %s: EvaluateInto differs from Evaluate", trial, tp.Name)
			}
		}
	}
}
