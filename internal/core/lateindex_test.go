package core

import (
	"fmt"
	"reflect"
	"testing"

	"dvecap/internal/xrand"
)

// attachLateIndex gives ev a late index filled the way a session's first
// solve fills it — as a by-product of a from-rows count pass at the given
// worker count — and returns it.
func attachLateIndex(t *testing.T, ev *Evaluator, workers int) *LateIndex {
	t.Helper()
	li := &LateIndex{}
	var w Workspace
	w.initialCostsParallel(ev.p, workers, li)
	if w.CostMatrixSource() != CostMatrixFromRows || !li.ValidFor(ev.p) {
		t.Fatalf("filling pass: source %q, valid %v", w.CostMatrixSource(), li.ValidFor(ev.p))
	}
	ev.SetLateIndex(li)
	return li
}

// requireIndexedMatrix asserts the cost matrix ev's late index keeps, as a
// solve copies it, equals InitialCosts(p) — the from-rows count — entry by
// entry, and that it really came from the index.
func requireIndexedMatrix(t *testing.T, label string, ev *Evaluator) {
	t.Helper()
	var w Workspace
	got := w.initialCostsParallel(ev.p, 1, ev.late)
	if w.CostMatrixSource() != CostMatrixFromIndex {
		t.Fatalf("%s: matrix came from %q, want the index", label, w.CostMatrixSource())
	}
	want := InitialCosts(ev.p)
	for i := range want {
		for z := range want[i] {
			if got[i][z] != want[i][z] {
				t.Fatalf("%s: CI[%d][%d] = %d from the index, %d from the rows", label, i, z, got[i][z], want[i][z])
			}
		}
	}
}

// TestIndexedCostMatrixEqualsRowCount drives random event streams — every
// client and topology verb (join, leave and its swap, move, delay row,
// single entry, server add and remove, zone add and retire), with the
// server count pushed across the 64-bit word boundaries in both directions
// — over m ∈ {1, 63, 64, 65, 130} and asserts after every event that the
// late index equals a recomputation and that the matrix it keeps equals the
// from-rows count. Delays sit on
// whole milliseconds around a whole-millisecond bound, and some are forced
// to exactly D (not late). The filling pass runs sequentially and sharded.
func TestIndexedCostMatrixEqualsRowCount(t *testing.T) {
	for _, m := range []int{1, 63, 64, 65, 130} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("m=%d/workers=%d", m, workers), func(t *testing.T) {
				rng := xrand.New(uint64(9100 + m))
				p, zoneServer := grecProblem(rng, m, 1000)
				for j := 0; j < p.NumClients(); j += 7 {
					p.SetCSAt(j, rng.IntN(m), p.D)
				}
				if workers > 1 {
					// Enough clients that the filling pass really shards.
					for p.NumClients()*m < 1<<15 {
						j := rng.IntN(240)
						p.ClientZones = append(p.ClientZones, p.ClientZones[j])
						p.ClientRT = append(p.ClientRT, p.ClientRT[j])
						p.AppendCSRow(randomDelayRow(rng, m))
					}
				}
				for i := range p.ServerCaps {
					p.ServerCaps[i] = 1e6 // placement freedom is not under test
				}
				contact, err := GreC(nil, p, zoneServer, Options{})
				if err != nil {
					t.Fatal(err)
				}
				ev := NewEvaluator(p, &Assignment{ZoneServer: zoneServer, ClientContact: contact})
				attachLateIndex(t, ev, workers)
				audit(t, ev)
				requireIndexedMatrix(t, "after fill", ev)

				for step := 0; step < 120; step++ {
					switch {
					case step%20 < 3:
						topoStep(ev, rng, 0) // three servers in: 63→66, 64→67, …
					case step%20 >= 10 && step%20 < 14:
						topoStep(ev, rng, 1) // and out again, lowest empty index first
					default:
						topoStep(ev, rng, 2+rng.IntN(10))
					}
					if k := ev.NumClients(); k > 0 && step%9 == 0 {
						ev.SetClientServerDelay(rng.IntN(k), rng.IntN(p.NumServers()), p.D)
					}
					if k := ev.NumClients(); k > 0 && step%7 == 0 {
						ev.SetClientDelays(rng.IntN(k), randomDelayRow(rng, p.NumServers()))
					}
					audit(t, ev)
					requireIndexedMatrix(t, fmt.Sprintf("step %d (m=%d)", step, p.NumServers()), ev)
				}
			})
		}
	}
}

// TestLateIndexIgnoresPlacementVerbs pins the move-invariance the design
// rests on: zone crossings, bandwidth changes, contact switches, zone
// rehostings, zone add/retire and cordons write no late-index word. The
// kept matrix does follow the zone verbs: a zone crossing moves exactly the
// client's late servers from its old zone's counts to the new zone's, and
// after every verb the matrix equals the from-rows count.
func TestLateIndexIgnoresPlacementVerbs(t *testing.T) {
	rng := xrand.New(77)
	p := randomProblem(rng.Split(), false).Clone()
	a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(p, a)
	li := attachLateIndex(t, ev, 1)
	before := append([]uint64(nil), li.words...)
	for step := 0; step < 300; step++ {
		k, m, n := ev.NumClients(), p.NumServers(), p.NumZones
		switch rng.IntN(7) {
		case 0:
			j, to := rng.IntN(k), rng.IntN(n)
			from := p.ClientZones[j]
			before := append([]int32(nil), li.costs...)
			ev.MoveClient(j, to)
			for i := 0; i < m; i++ {
				d := int32(0)
				if from != to && li.has(j, i) {
					d = 1
				}
				if li.costs[from*m+i] != before[from*m+i]-d || li.costs[to*m+i] != before[to*m+i]+d {
					t.Fatalf("step %d: moving client %d from zone %d to %d left server %d's counts at %d and %d, were %d and %d (late: %v)",
						step, j, from, to, i, li.costs[from*m+i], li.costs[to*m+i], before[from*m+i], before[to*m+i], li.has(j, i))
				}
			}
		case 1:
			ev.SetClientRT(rng.IntN(k), rng.Uniform(0.05, 0.5))
		case 2:
			ev.ApplyContactSwitch(rng.IntN(k), rng.IntN(m))
		case 3:
			ev.ApplyZoneMove(rng.IntN(n), rng.IntN(m))
		case 4:
			ev.SetCordon(rng.IntN(m), rng.IntN(2) == 0)
		case 5:
			ev.AddZone(rng.IntN(m))
		default:
			if z := emptyZone(ev); z >= 0 && n > 1 {
				ev.RemoveZone(z)
			}
		}
		if len(li.words) != len(before) {
			t.Fatalf("step %d: a placement verb resized the late index", step)
		}
		for x := range before {
			if li.words[x] != before[x] {
				t.Fatalf("step %d: a placement verb rewrote late-index word %d", step, x)
			}
		}
		requireIndexedMatrix(t, fmt.Sprintf("step %d", step), ev)
	}
	audit(t, ev)
}

// TestLateIndexLifecycle pins when an index is valid: only for the problem
// it was filled from; dropped by a Reset onto another problem and by
// RestoreState, kept by a Reset onto the same problem; an unfilled or
// foreign index leaves a solve on the rows and is filled by it; Audit
// reports a corrupted word.
func TestLateIndexLifecycle(t *testing.T) {
	rng := xrand.New(5150)
	p := randomProblem(rng.Split(), false).Clone()
	opt := Options{Overflow: SpillLargestResidual, Scratch: NewWorkspace(), Late: &LateIndex{}}
	solve := func(p *Problem, wantSource string) *Assignment {
		t.Helper()
		a, err := GreZGreC.Solve(nil, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := opt.Scratch.CostMatrixSource(); got != wantSource {
			t.Fatalf("cost matrix from %q, want %q", got, wantSource)
		}
		return a
	}
	a := solve(p, CostMatrixFromRows)
	ev := NewEvaluator(p, a)
	ev.SetLateIndex(opt.Late)
	sameAssignment(t, "indexed re-solve", a, solve(p, CostMatrixFromIndex))

	ev.Reset(p, a)
	if !opt.Late.ValidFor(p) {
		t.Fatal("Reset onto the same problem dropped the index")
	}
	st := ev.ExportState()
	if err := ev.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if opt.Late.ValidFor(p) {
		t.Fatal("RestoreState kept the index")
	}
	ev.AddClient(0, 0.2, randomDelayRow(rng, p.NumServers())) // unmaintained while dropped: must not touch it
	solve(p, CostMatrixFromRows)
	audit(t, ev)

	q := p.Clone()
	if opt.Late.ValidFor(q) {
		t.Fatal("index valid for a clone of its problem")
	}
	ev.Reset(q, solve(q, CostMatrixFromRows)) // the solve rebinds the index to q
	audit(t, ev)
	ev.Reset(p, a)
	if opt.Late.ValidFor(q) || opt.Late.ValidFor(p) {
		t.Fatal("Reset onto another problem kept the index")
	}

	solve(p, CostMatrixFromRows)
	if err := opt.Late.Audit(p); err != nil {
		t.Fatal(err)
	}
	opt.Late.words[0] ^= 1
	if err := opt.Late.Audit(p); err == nil {
		t.Fatal("Audit missed a flipped bit")
	}
}

// TestEvaluatorMetricsEqualsEvaluate: the maintained metrics are, bit for
// bit, what a from-scratch Evaluate computes, after every kind of mutation
// and on an emptied population.
func TestEvaluatorMetricsEqualsEvaluate(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := xrand.New(uint64(6400 + trial))
		p := randomProblem(rng.Split(), trial%3 == 0).Clone()
		a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(p, a)
		for step := 0; step < 80; step++ {
			topoStep(ev, rng, rng.IntN(12))
			requireSameMetrics(t, fmt.Sprintf("trial %d step %d", trial, step), ev)
		}
		for ev.NumClients() > 0 {
			ev.RemoveClient(0)
		}
		requireSameMetrics(t, "emptied", ev)
	}
}

func requireSameMetrics(t *testing.T, label string, ev *Evaluator) {
	t.Helper()
	if got, want := ev.Metrics(), Evaluate(ev.p, ev.Assignment()); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Metrics() = %+v\nEvaluate gives %+v", label, got, want)
	}
}
