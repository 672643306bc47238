package core

import (
	"fmt"
	"math"
	"testing"

	"dvecap/internal/xrand"
)

// requireWarmGreCEqualsCold runs GreC over p under zoneServer twice — through
// the warm late index li on the warm workspace, and with no index on a fresh
// workspace — and fails unless the contacts and GreCCounts agree.
func requireWarmGreCEqualsCold(t *testing.T, label string, p *Problem, zoneServer []int, li *LateIndex, warm *Workspace) {
	t.Helper()
	if !li.ValidFor(p) {
		t.Fatalf("%s: the late index is not valid for the problem, so the solve would not read it", label)
	}
	got, err := GreC(nil, p, zoneServer, Options{Scratch: warm, Late: li})
	if err != nil {
		t.Fatal(err)
	}
	cold := NewWorkspace()
	want, err := GreC(nil, p, zoneServer, Options{Scratch: cold})
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: client %d on server %d through the warm index, %d without one", label, j, got[j], want[j])
		}
	}
	gl, gr := warm.GreCCounts()
	wl, wr := cold.GreCCounts()
	if gl != wl || gr != wr {
		t.Fatalf("%s: warm index sees %d late clients and %d third choices, a cold solve %d and %d", label, gl, gr, wl, wr)
	}
}

// memoRow draws a fresh delay row for client j; behind a provider, two
// entries in three are left unmeasured half the time, so the stored row is
// part prediction.
func memoRow(rng *xrand.RNG, p *Problem, j int) []float64 {
	row := randomDelayRow(rng, p.NumServers())
	if p.Delays != nil && rng.IntN(2) == 0 {
		for i := range row {
			if (i+j)%3 != 0 {
				row[i] = math.NaN()
			}
		}
	}
	return row
}

// TestGreCMemoMatchesColdSolve drives random event streams through an
// evaluator whose late index stays attached — every late-index hook (row and
// entry writes, client joins and swap-removes, servers pushed across the
// 64-bit word boundaries in both directions, a restore that drops the index,
// a refill for another problem, a copy handed to a clone that then diverges)
// plus zone moves and rehostings — over m ∈ {1, 63, 64, 65, 130}, on raw
// rows, sparse coordinate rows and full-row coordinate clients. After every
// step GreC runs on the warm index twice, with the current hosting and with
// some zones re-targeted, and must agree with a solve that has no index:
// whatever the index keeps between solves may save work, never change a
// contact or a count.
func TestGreCMemoMatchesColdSolve(t *testing.T) {
	storages := []struct {
		name  string
		build func(*Problem) *Problem
	}{
		{"rows", func(p *Problem) *Problem { return p }},
		{"coord-sparse", sparseCoordProblem},
		{"coord-full", func(p *Problem) *Problem { return providerProblem(p, ProviderCoord) }},
	}
	for _, m := range []int{1, 63, 64, 65, 130} {
		for _, st := range storages {
			t.Run(fmt.Sprintf("m=%d/%s", m, st.name), func(t *testing.T) {
				rng := xrand.New(uint64(9300 + m))
				base, zoneServer := grecProblem(rng, m, 9)
				p := st.build(base)
				contact, err := GreC(nil, p, zoneServer, Options{})
				if err != nil {
					t.Fatal(err)
				}
				ev := NewEvaluator(p, &Assignment{ZoneServer: zoneServer, ClientContact: contact})
				li := attachLateIndex(t, ev, 1)
				warm := NewWorkspace()
				hosting := func() []int {
					zs := make([]int, p.NumZones)
					for z := range zs {
						zs[z] = ev.ZoneHost(z)
					}
					return zs
				}
				requireWarmGreCEqualsCold(t, "after fill", p, hosting(), li, warm)

				for step := 0; step < 120; step++ {
					k := ev.NumClients()
					switch {
					case step%20 < 3:
						topoStep(ev, rng, 0) // three servers in: 63→66, 64→67, …
					case step%20 >= 10 && step%20 < 14:
						topoStep(ev, rng, 1) // and out again, lowest empty index first
					case step%20 == 5 && k > 0:
						ev.SetClientDelays(rng.IntN(k), memoRow(rng, p, rng.IntN(k)))
					case step%20 == 6 && k > 1:
						// A leave and a join before the next solve: the joiner
						// takes the index the renumbered last client vacated.
						ev.RemoveClient(rng.IntN(k))
						ev.AddClient(rng.IntN(p.NumZones), rng.Uniform(0.05, 0.5), memoRow(rng, p, k-1))
					case step%20 == 7 && k > 0:
						ev.SetClientServerDelay(rng.IntN(k), rng.IntN(p.NumServers()), p.D)
					case step%20 == 8:
						for x := 0; x < 4 && k > 0; x++ {
							ev.MoveClient(rng.IntN(k), rng.IntN(p.NumZones))
						}
					case step == 24 || step == 84:
						// A restore drops the index; the next count pass refills it.
						if err := ev.RestoreState(ev.ExportState()); err != nil {
							t.Fatal(err)
						}
						warm.initialCostsParallel(p, 1, li)
					case step == 44 || step == 104:
						// The index refilled for a diverged clone, solved there,
						// then refilled for p again.
						q := p.Clone()
						for j := 0; j < q.NumClients(); j++ {
							q.SetCSRow(j, memoRow(rng, q, j))
						}
						warm.initialCostsParallel(q, 1, li)
						requireWarmGreCEqualsCold(t, fmt.Sprintf("step %d, refilled for a clone", step), q, hosting(), li, warm)
						warm.initialCostsParallel(p, 1, li)
					case step == 64 || step == 114:
						// A copy of the index follows a clone whose rows then
						// diverge; both keep solving on their own index.
						q := p.Clone()
						li2 := &LateIndex{}
						li2.CopyFrom(li, q)
						ev2 := NewEvaluator(q, ev.Assignment())
						ev2.SetLateIndex(li2)
						for j := 0; j < q.NumClients(); j += 2 {
							ev2.SetClientDelays(j, memoRow(rng, q, j))
						}
						w2 := NewWorkspace()
						requireWarmGreCEqualsCold(t, fmt.Sprintf("step %d, the copy", step), q, hosting(), li2, w2)
						requireWarmGreCEqualsCold(t, fmt.Sprintf("step %d, the copy re-solved", step), q, hosting(), li2, w2)
						audit(t, ev2)
					default:
						topoStep(ev, rng, 2+rng.IntN(topoOps-2))
					}
					audit(t, ev)
					zs := hosting()
					label := fmt.Sprintf("step %d (m=%d, k=%d)", step, p.NumServers(), ev.NumClients())
					requireWarmGreCEqualsCold(t, label, p, zs, li, warm)
					for x := 0; x < 3; x++ {
						zs[rng.IntN(len(zs))] = rng.IntN(p.NumServers())
					}
					requireWarmGreCEqualsCold(t, label+", zones re-targeted", p, zs, li, warm)
					audit(t, ev)
				}
			})
		}
	}
}

// gridProblem is a GreC instance whose delays and inter-server delays sit
// on a 50 ms grid around a 200 ms bound, so most late clients' regrets tie
// (0, 50, 100, …) and the (regret desc, client asc) order rests on its
// client tie-break; capacities leave each server a little forwarding room
// over its zones, so that order decides contacts.
func gridProblem(rng *xrand.RNG, m int) (*Problem, []int) {
	const n, k = 10, 400
	p := &Problem{
		ServerCaps:  make([]float64, m),
		ClientZones: make([]int, k),
		NumZones:    n,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           200,
	}
	for i := range p.SS {
		p.SS[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for l := i + 1; l < m; l++ {
			d := 50 * float64(rng.IntN(3))
			p.SS[i][l], p.SS[l][i] = d, d
		}
	}
	zoneServer := make([]int, n)
	for z := range zoneServer {
		zoneServer[z] = rng.IntN(m)
	}
	for j := range p.CS {
		p.ClientZones[j], p.ClientRT[j], p.CS[j] = rng.IntN(n), rng.Uniform(0.05, 0.5), gridRow(rng, m)
		p.ServerCaps[zoneServer[p.ClientZones[j]]] += p.ClientRT[j]
	}
	for i := range p.ServerCaps {
		p.ServerCaps[i] += rng.Uniform(2, 8)
	}
	return p.Clone(), zoneServer
}

// gridRow is a delay row on gridProblem's 50 ms grid.
func gridRow(rng *xrand.RNG, m int) []float64 {
	row := make([]float64, m)
	for i := range row {
		row[i] = 50 * float64(rng.IntN(8))
	}
	return row
}

// TestGreCMergeMatchesColdSolve is TestGreCMemoMatchesColdSolve's pattern
// aimed at the merge of kept and fresh choices: on gridProblem's tied
// regrets, each round forgets a random part of the memo — choices dropped,
// rows rewritten, zones re-targeted — and GreC on the warm index must
// process the late clients in exactly the order of a solve without one, and
// agree on every contact and count. Rounds where both runs are non-empty
// and a tie straddles them are required, so the tie-break really merges.
func TestGreCMergeMatchesColdSolve(t *testing.T) {
	for _, m := range []int{2, 5, 65} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			rng := xrand.New(uint64(9500 + m))
			p, zs := gridProblem(rng, m)
			contact, err := GreC(nil, p, zs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ev := NewEvaluator(p, &Assignment{ZoneServer: zs, ClientContact: contact})
			li := attachLateIndex(t, ev, 1)
			warm := NewWorkspace()
			if _, err := GreC(nil, p, zs, Options{Scratch: warm, Late: li}); err != nil {
				t.Fatal(err)
			}
			straddled := 0
			for round := 0; round < 40; round++ {
				for _, e := range li.memo.entries {
					if rng.IntN(4) == 0 {
						li.memo.forget(int(e.client))
					}
				}
				for x := rng.IntN(6); x > 0; x-- {
					j := rng.IntN(p.NumClients())
					ev.SetClientDelays(j, gridRow(rng, m))
				}
				if round%3 == 0 {
					zs[rng.IntN(len(zs))] = rng.IntN(m)
				}
				// The choices the warm solve will keep: the rest are fresh.
				kept := map[int]bool{}
				for _, e := range li.memo.entries {
					j := int(e.client)
					kept[j] = li.memo.holds(j) && int(e.target) == zs[p.ClientZones[j]]
				}
				label := fmt.Sprintf("round %d", round)
				requireWarmGreCEqualsCold(t, label, p, zs, li, warm)
				cold := NewWorkspace()
				if _, err := GreC(nil, p, zs, Options{Scratch: cold}); err != nil {
					t.Fatal(err)
				}
				late, _ := cold.GreCCounts()
				got, want := warm.choices[:late], cold.choices[:late]
				for x := range want {
					if got[x] != want[x] {
						t.Fatalf("%s: choice %d is %+v on the warm index, %+v without one", label, x, got[x], want[x])
					}
				}
				if read := warm.GreCLateRowsRead(); read == 0 || read == late {
					continue
				}
				for x := 1; x < late; x++ {
					if a, b := got[x-1], got[x]; a.regret == b.regret && kept[a.item] != kept[b.item] {
						straddled++
						break
					}
				}
			}
			if straddled == 0 {
				t.Fatal("no round merged a kept and a fresh choice of equal regret")
			}
		})
	}
}
