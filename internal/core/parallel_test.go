package core

import (
	"testing"

	"dvecap/internal/xrand"
)

// sameAssignment fails the test unless a and b are identical in every zone
// hosting and every client contact.
func sameAssignment(t *testing.T, label string, a, b *Assignment) {
	t.Helper()
	for z := range a.ZoneServer {
		if a.ZoneServer[z] != b.ZoneServer[z] {
			t.Fatalf("%s: zone %d hosted on %d vs %d", label, z, a.ZoneServer[z], b.ZoneServer[z])
		}
	}
	for j := range a.ClientContact {
		if a.ClientContact[j] != b.ClientContact[j] {
			t.Fatalf("%s: client %d contact %d vs %d", label, j, a.ClientContact[j], b.ClientContact[j])
		}
	}
}

// searchWithWorkers runs the cached local search with the given worker
// count and returns the resulting assignment.
func searchWithWorkers(p *Problem, a *Assignment, rounds, workers int) *Assignment {
	ev := NewEvaluator(p, a)
	ev.SetWorkers(workers)
	ev.LocalSearch(rounds)
	return ev.Assignment()
}

// TestParallelLocalSearchMatchesSequential proves the tentpole equivalence
// chain on generous and tight random instances: for every round budget,
// the cache-free sequential rescan, the cached sequential search and the
// cached parallel search at several worker counts all accept the identical
// move sequence — the final assignments match move for move.
func TestParallelLocalSearchMatchesSequential(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := xrand.New(uint64(11000 + trial))
		tight := trial%2 == 1
		p := randomProblem(rng.Split(), tight)
		start, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, rounds := range []int{1, 2, 4} {
			rescan := NewEvaluator(p, start)
			rescan.localSearchRescan(rounds)
			want := rescan.Assignment()
			got := searchWithWorkers(p, start, rounds, 1)
			sameAssignment(t, "cached sequential vs full rescan", want, got)
			for _, workers := range []int{2, 3, 4, 8} {
				par := searchWithWorkers(p, start, rounds, workers)
				sameAssignment(t, "parallel vs sequential", got, par)
			}
		}
	}
}

// TestParallelLocalSearchSynthetic repeats the equivalence check on a
// plane-embedded instance with real locality structure (the medium shape
// of the benchmarks), where the search accepts long move sequences.
func TestParallelLocalSearchSynthetic(t *testing.T) {
	p := benchSyntheticCAP(42, 20, 80, 2000)
	start, err := RanZVirC.Solve(xrand.New(7), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	rescan := NewEvaluator(p, start)
	rescan.localSearchRescan(3)
	want := rescan.Assignment()
	seq := searchWithWorkers(p, start, 3, 1)
	sameAssignment(t, "cached sequential vs full rescan", want, seq)
	for _, workers := range []int{2, 4, 7} {
		par := searchWithWorkers(p, start, 3, workers)
		sameAssignment(t, "parallel vs sequential", seq, par)
	}
}

// TestCachedSearchUnderMutations interleaves every dynamic mutation with
// cached scans and checks each scan against a cold-cache evaluator built
// from a clone of the same state: stale cache rows would make the two
// accept different moves — and, before each scan, every row the mutation
// left clean is compared entry by entry with a from-scratch build
// (checkCleanRows), and the late index with a recomputation from the delay
// rows (checkLateIndex). This pins the invalidation invariants of DESIGN.md
// §8.
func TestCachedSearchUnderMutations(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := xrand.New(uint64(12000 + trial))
		p := randomProblem(rng.Split(), trial%3 == 0).Clone()
		a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ev := NewEvaluator(p, a)
		if trial%2 == 0 {
			ev.SetWorkers(1 + rng.IntN(4))
		}
		attachLateIndex(t, ev, 1)
		m := p.NumServers()
		for step := 0; step < 60; step++ {
			switch k := ev.NumClients(); rng.IntN(7) {
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
				if k > 0 {
					ev.ApplyContactSwitch(rng.IntN(k), rng.IntN(m))
				}
			default:
				if k > 0 {
					ev.ApplyZoneMove(rng.IntN(p.NumZones), rng.IntN(m))
				}
			}
			// Whatever the mutation left clean must equal a from-scratch row.
			checkCleanRows(t, "after mutation", ev)
			checkLateIndex(t, ev)
			// A cold evaluator on a cloned snapshot is the ground truth for
			// what the very next scan must decide.
			cold := NewEvaluator(p.Clone(), ev.Assignment())
			if rng.IntN(2) == 0 {
				z := rng.IntN(p.NumZones)
				if got, want := ev.ImproveZone(z), cold.ImproveZone(z); got != want {
					t.Fatalf("trial %d step %d: cached ImproveZone(%d) = %v, cold = %v",
						trial, step, z, got, want)
				}
			} else {
				if got, want := ev.bestZoneMove(), cold.bestZoneMove(); got != want {
					t.Fatalf("trial %d step %d: cached bestZoneMove = %v, cold = %v",
						trial, step, got, want)
				}
			}
			sameAssignment(t, "cached vs cold-cache scan", cold.Assignment(), ev.Assignment())
		}
	}
}

// TestWorkerPoolRaceStress pushes the sharded scan hard enough for the
// race detector to observe the worker pool: many workers, repeated
// rebinds, and concurrent-scan rounds over a structured instance. The
// assertions are light — the value of this test is `go test -race`.
func TestWorkerPoolRaceStress(t *testing.T) {
	p := benchSyntheticCAP(99, 12, 60, 1500)
	start, err := RanZVirC.Solve(xrand.New(3), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(p, start)
	want := searchWithWorkers(p, start, 4, 1)
	for _, workers := range []int{2, 5, 8, 16} {
		ev.Reset(p, start)
		ev.SetWorkers(workers)
		ev.LocalSearch(4)
		sameAssignment(t, "stress parallel vs sequential", want, ev.Assignment())
	}
}

// TestParallelGreZMatchesSequential proves the sharded cost-matrix build
// leaves GreZ (and the sticky and dynamic variants) bit-identical: counts
// are integers, so the partial-matrix merge is exact.
func TestParallelGreZMatchesSequential(t *testing.T) {
	// Above the small-instance cutoff so the parallel path actually runs.
	p := benchSyntheticCAP(17, 25, 40, 3000)
	for _, algo := range []IAPFunc{GreZ, GreZDynamic} {
		seq, err := algo(nil, p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 9} {
			par, err := algo(nil, p, Options{Overflow: SpillLargestResidual, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for z := range seq {
				if seq[z] != par[z] {
					t.Fatalf("workers=%d: zone %d on server %d, sequential %d",
						workers, z, par[z], seq[z])
				}
			}
		}
	}
}
