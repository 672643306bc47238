package core

import (
	"testing"

	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// emptyServer returns a server of ev hosting no zones and serving no
// contacts (removal-eligible), or -1.
func emptyServer(ev *Evaluator) int {
	p := ev.p
	used := make([]bool, p.NumServers())
	for z := 0; z < p.NumZones; z++ {
		used[ev.ZoneHost(z)] = true
	}
	for j := 0; j < ev.NumClients(); j++ {
		used[ev.Contact(j)] = true
	}
	for i, u := range used {
		if !u {
			return i
		}
	}
	return -1
}

// emptyZone returns a zone of ev with no clients, or -1.
func emptyZone(ev *Evaluator) int {
	for z := 0; z < ev.p.NumZones; z++ {
		if len(ev.ZoneClients(z)) == 0 {
			return z
		}
	}
	return -1
}

// topoOps is how many kinds of mutation topoStep knows.
const topoOps = 14

// topoStep applies one random mutation — client churn, topology churn, or
// a placement op — to ev. op selects the kind; rng supplies the operands.
func topoStep(ev *Evaluator, rng *xrand.RNG, op int) {
	p := ev.p
	m := p.NumServers()
	k := ev.NumClients()
	switch op % topoOps {
	case 0: // add a server with fresh random delays
		ss := make([]float64, m)
		for i := range ss {
			ss[i] = rng.Uniform(5, 200)
		}
		col := make([]float64, k)
		for j := range col {
			col[j] = rng.Uniform(0, 500)
		}
		ev.AddServer(rng.Uniform(50, 200), ss, col)
	case 1: // remove an empty server, if any
		if i := emptyServer(ev); i >= 0 && m > 1 {
			ev.RemoveServer(i)
		}
	case 2: // add a zone on a random host
		ev.AddZone(rng.IntN(m))
	case 3: // retire an empty zone, if any
		if z := emptyZone(ev); z >= 0 && p.NumZones > 1 {
			ev.RemoveZone(z)
		}
	case 4: // flip a cordon
		i := rng.IntN(m)
		ev.SetCordon(i, !ev.Cordoned(i))
	case 5: // overlay one measured client→server delay
		if k > 0 {
			ev.SetClientServerDelay(rng.IntN(k), rng.IntN(m), rng.Uniform(0, 500))
		}
	case 6:
		ev.AddClient(rng.IntN(p.NumZones), rng.Uniform(0.05, 0.5), randomDelayRow(rng, m))
	case 7:
		if k > 1 {
			ev.RemoveClient(rng.IntN(k))
		}
	case 8:
		if k > 0 {
			ev.MoveClient(rng.IntN(k), rng.IntN(p.NumZones))
		}
	case 9: // forced evacuation-style move
		z := rng.IntN(p.NumZones)
		if s := ev.BestZoneHost(z); s >= 0 {
			ev.ApplyZoneMove(z, s)
		}
	case 10:
		if k > 0 {
			ev.GreedyContact(rng.IntN(k))
		}
	case 11:
		ev.ImproveZone(rng.IntN(p.NumZones))
	case 12: // adopt a fresh re-solve, cordons respected
		opts := Options{Overflow: SpillLargestResidual, Cordoned: append([]bool(nil), ev.cordoned...)}
		if a, err := GreZGreC.Solve(rng.Split(), p, opts); err == nil {
			ev.Adopt(a)
		}
	default: // rehost a zone anywhere, feasible or not
		ev.ApplyZoneMove(rng.IntN(p.NumZones), rng.IntN(m))
	}
}

// TestEvaluatorTopologyMatchesFresh drives the evaluator through long
// random sequences that interleave topology churn — server add/remove,
// zone add/retire, cordons, column-wise delay overlays — with the client
// churn of evaluator_dyn_test, and audits after every step.
func TestEvaluatorTopologyMatchesFresh(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := xrand.New(uint64(31100 + trial))
		p := randomProblem(rng.Split(), trial%3 == 0).Clone()
		a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ev := NewEvaluator(p, a)
		for step := 0; step < 80; step++ {
			topoStep(ev, rng, rng.IntN(topoOps))
			audit(t, ev)
		}
	}
}

// TestCachedSearchUnderTopologyMutations is TestCachedSearchUnderMutations
// with topology churn in the mutation mix: after every mutation the warm
// evaluator's next cached scan must decide exactly what a cold evaluator
// (built fresh from a snapshot, cache empty) decides — proving the
// dimension-resize invalidation rules (server changes invalidate all, zone
// changes relocate rows precisely) leave no stale row behind.
func TestCachedSearchUnderTopologyMutations(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := xrand.New(uint64(31500 + trial))
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
		for step := 0; step < 50; step++ {
			topoStep(ev, rng, rng.IntN(topoOps))
			audit(t, ev)
			cold := NewEvaluator(p.Clone(), ev.Assignment())
			for i := 0; i < p.NumServers(); i++ {
				cold.SetCordon(i, ev.Cordoned(i))
			}
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
			sameAssignment(t, "cached vs cold-cache scan (topology churn)", cold.Assignment(), ev.Assignment())
		}
	}
}

// TestRemoveServerRenumbering pins the swap-remove contract: removing a
// non-last server relocates the last server to the vacated index —
// capacities, loads, delay columns, zone hosts and contacts all follow —
// and reports the renumbered index.
func TestRemoveServerRenumbering(t *testing.T) {
	rng := xrand.New(99)
	p := randomProblem(rng.Split(), false).Clone()
	a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(p, a)
	// Make server m empty by adding it fresh (no zones, no contacts land
	// on it without a placement op).
	m := p.NumServers()
	ss := make([]float64, m)
	for i := range ss {
		ss[i] = rng.Uniform(5, 200)
	}
	col := make([]float64, ev.NumClients())
	for j := range col {
		col[j] = rng.Uniform(0, 500)
	}
	idx := ev.AddServer(123, ss, col)
	if idx != m {
		t.Fatalf("AddServer index = %d, want %d", idx, m)
	}
	// Removing a non-last, empty server renumbers the last one.
	victim := emptyServer(ev)
	if victim < 0 {
		t.Skip("no empty server in this instance")
	}
	lastCap := p.ServerCaps[p.NumServers()-1]
	lastCS0 := p.CSAt(0, p.NumServers()-1)
	moved := ev.RemoveServer(victim)
	if victim == p.NumServers() { // victim was last
		if moved != -1 {
			t.Fatalf("removing the last server reported moved = %d, want -1", moved)
		}
		return
	}
	if moved != p.NumServers() {
		t.Fatalf("moved = %d, want old last index %d", moved, p.NumServers())
	}
	if p.ServerCaps[victim] != lastCap {
		t.Fatalf("renumbered capacity = %v, want %v", p.ServerCaps[victim], lastCap)
	}
	if p.CSAt(0, victim) != lastCS0 {
		t.Fatalf("renumbered CS column = %v, want %v", p.CSAt(0, victim), lastCS0)
	}
	audit(t, ev)
}

// fuzzTopology is FuzzEvaluatorTopology's body: every row warm and a late
// index attached at the start, then one topoStep per op byte and an Audit
// after each. It returns how many rows the stream rebased.
func fuzzTopology(t *testing.T, seed uint64, ops []byte) uint64 {
	if len(ops) > 64 {
		ops = ops[:64]
	}
	rng := xrand.New(seed)
	p := randomProblem(rng.Split(), seed%2 == 0).Clone()
	a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		t.Skip()
	}
	ev := NewEvaluator(p, a)
	ev.SetTelemetry(telemetry.NewRegistry())
	attachLateIndex(t, ev, 1)
	syncAllRows(ev)
	for _, op := range ops {
		topoStep(ev, rng, int(op))
		audit(t, ev)
	}
	return ev.tele.rowsRebased.Value()
}

// topologyRebaseSeeds are committed fuzz inputs that reach the rebase leg:
// the first rebases rows by zone moves and handoffs (and folds them after),
// the second by adoptions alone.
var topologyRebaseSeeds = []struct {
	seed uint64
	ops  []byte
}{
	{6, []byte{13, 11, 13, 6, 13, 12, 11, 9, 13, 12, 13, 11}},
	{14, []byte{6, 8, 12, 6, 8, 8, 12, 7, 8, 12, 10, 8, 12, 8, 6, 12}},
}

// TestTopologyFuzzSeedsReachRebase keeps the committed seeds honest.
func TestTopologyFuzzSeedsReachRebase(t *testing.T) {
	for _, in := range topologyRebaseSeeds {
		if n := fuzzTopology(t, in.seed, in.ops); n < 3 {
			t.Fatalf("seed %d rebased %d rows", in.seed, n)
		}
	}
}

// FuzzEvaluatorTopology feeds arbitrary op streams into the topology and
// churn mutations — adoptions and zone moves among them, over maintained
// rows — and audits after every op: the fuzz form of
// TestEvaluatorTopologyMatchesFresh.
func FuzzEvaluatorTopology(f *testing.F) {
	f.Add(uint64(1), []byte{0, 2, 6, 6, 9, 1, 3, 5, 4, 10, 11, 7})
	f.Add(uint64(7), []byte{0, 0, 1, 1, 2, 3, 4, 4, 8, 9})
	f.Add(uint64(42), []byte{6, 6, 6, 0, 5, 5, 7, 1, 2, 3, 11})
	for _, in := range topologyRebaseSeeds {
		f.Add(in.seed, in.ops)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		fuzzTopology(t, seed, ops)
	})
}
