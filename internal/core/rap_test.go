package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"dvecap/internal/xrand"
)

// referenceGreC is Fig. 3 written the obvious way, as a test reference:
// every late client's servers fully sorted (stable, so ties keep index
// order), clients stably sorted by regret, each walked down its whole list.
// deepest is the worst list position any client was placed at.
func referenceGreC(p *Problem, zoneServer []int, opt Options) (contact []int, deepest int) {
	m := p.NumServers()
	loads := make([]float64, m)
	for z, rt := range p.ZoneRT() {
		loads[zoneServer[z]] += rt
	}
	contact = make([]int, p.NumClients())
	var late []int
	lists, regret := map[int][]int{}, map[int]float64{}
	for j, z := range p.ClientZones {
		t := zoneServer[z]
		contact[j] = t
		if p.CSAt(j, t) <= p.D {
			continue
		}
		mu := func(i int) float64 { return -RefinedCost(p, j, i, t) }
		l := make([]int, m)
		for i := range l {
			l[i] = i
		}
		sort.SliceStable(l, func(a, b int) bool { return mu(l[a]) > mu(l[b]) })
		if m >= 2 {
			regret[j] = mu(l[0]) - mu(l[1])
		}
		late, lists[j] = append(late, j), l
	}
	sort.SliceStable(late, func(a, b int) bool { return regret[late[a]] > regret[late[b]] })
	for _, j := range late {
		t, rt := contact[j], p.ClientRT[j]
		for pos, s := range lists[j] {
			if s != t && (opt.cordoned(s) || !almostLE(loads[s]+2*rt, p.ServerCaps[s])) {
				continue
			}
			if s != t {
				loads[s] += 2 * rt
			}
			contact[j], deepest = s, max(deepest, pos)
			break
		}
	}
	return contact, deepest
}

// grecProblem draws an m-server instance with roughly half its clients late
// and a fixed zone → server map, then sizes every server to its hosted zone
// load plus room for `room` average clients' worth of forwarding.
func grecProblem(rng *xrand.RNG, m int, room float64) (*Problem, []int) {
	const n, k = 12, 240
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
			d := rng.Uniform(0, 120)
			p.SS[i][l], p.SS[l][i] = d, d
		}
	}
	zoneServer := make([]int, n)
	for z := range zoneServer {
		zoneServer[z] = rng.IntN(m)
	}
	for j := 0; j < k; j++ {
		p.ClientZones[j] = rng.IntN(n)
		p.ClientRT[j] = rng.Uniform(0.05, 0.5)
		p.CS[j] = make([]float64, m)
		for i := range p.CS[j] {
			// Whole milliseconds: ties in µ, so the index tie-break matters.
			p.CS[j][i] = math.Floor(rng.Uniform(0, 400))
		}
	}
	for z, rt := range p.ZoneRT() {
		p.ServerCaps[zoneServer[z]] += rt
	}
	for i := range p.ServerCaps {
		p.ServerCaps[i] += room * 2 * 0.275 * rng.Uniform(0.5, 1.5)
	}
	return p, zoneServer
}

// sparseCoordProblem is p behind a coordinate provider that keeps only
// every third measurement as an override: the rest of each row is the
// coordinate prediction, so Row's kernel (not the override copy) feeds GreC.
func sparseCoordProblem(p *Problem) *Problem {
	q := p.Clone()
	cp := NewCoordProviderFromSS(q.SS, 0)
	for j, row := range q.CS {
		for i := range row {
			if (i+j)%3 != 0 {
				row[i] = math.NaN()
			}
		}
		cp.AppendClient(row)
	}
	q.CS, q.Delays = nil, cp
	return q
}

// TestGreCMatchesFullSortReference pins the two-candidate GreC to the
// full-sort reference: identical contact vectors over every delay storage,
// with and without a cordon mask, with the first pass reading delays and
// reading a filled late index, from loose to starved capacity — and the
// starved rows must really walk past the second choice.
func TestGreCMatchesFullSortReference(t *testing.T) {
	capacities := []struct {
		name string
		room float64 // average late clients a server can forward for
	}{{"loose", 1000}, {"tight", 9}, {"starved", 1.5}}
	storages := []struct {
		name  string
		build func(*Problem) *Problem
	}{
		{"CS", func(p *Problem) *Problem { return p }},
		// The raw matrix as the repair planner holds it: arena rows with
		// spare capacity behind each.
		{"dense", func(p *Problem) *Problem { return p.ClonePadded(3) }},
		{ProviderSharedRow, func(p *Problem) *Problem { return providerProblem(p, ProviderSharedRow) }},
		{ProviderCoord, func(p *Problem) *Problem { return providerProblem(p, ProviderCoord) }},
		{"coord-sparse", sparseCoordProblem},
	}
	for _, m := range []int{1, 2, 3, 8, 20} {
		for _, c := range capacities {
			for _, st := range storages {
				for _, masked := range []bool{false, true} {
					t.Run(fmt.Sprintf("m=%d/%s/%s/masked=%v", m, c.name, st.name, masked), func(t *testing.T) {
						w := NewWorkspace()
						deepestSeen, rebuildsSeen := 0, 0
						for trial := 0; trial < 4; trial++ {
							rng := xrand.New(uint64(7100 + 10*m + trial))
							base, zoneServer := grecProblem(rng, m, c.room)
							p := st.build(base)
							opt := Options{Scratch: w}
							if masked {
								opt.Cordoned = make([]bool, m)
								for i := 1; i < m; i += 3 {
									opt.Cordoned[i] = true
								}
							}
							want, deepest := referenceGreC(p, zoneServer, opt)
							got, err := GreC(nil, p, zoneServer, opt)
							if err != nil {
								t.Fatal(err)
							}
							for j := range want {
								if got[j] != want[j] {
									t.Fatalf("trial %d: client %d on server %d, reference has %d", trial, j, got[j], want[j])
								}
							}
							late, rebuilds := w.GreCCounts()
							opt.Late = &LateIndex{}
							w.initialCostsParallel(p, 1, opt.Late)
							indexed, err := GreC(nil, p, zoneServer, opt)
							if err != nil {
								t.Fatal(err)
							}
							for j := range want {
								if indexed[j] != want[j] {
									t.Fatalf("trial %d: late index puts client %d on server %d, reference has %d", trial, j, indexed[j], want[j])
								}
							}
							if l, r := w.GreCCounts(); l != late || r != rebuilds {
								t.Fatalf("trial %d: late index sees %d late clients and %d rebuilds, delays %d and %d", trial, l, r, late, rebuilds)
							}
							if late == 0 {
								t.Fatalf("trial %d: no late clients — the instance tests nothing", trial)
							}
							if (deepest >= 2) != (rebuilds > 0) {
								t.Fatalf("trial %d: reference placed a client at list position %d but GreC counted %d rebuilds", trial, deepest, rebuilds)
							}
							deepestSeen, rebuildsSeen = max(deepestSeen, deepest), rebuildsSeen+rebuilds
						}
						if c.name == "starved" && m >= 3 && (deepestSeen < 2 || rebuildsSeen == 0) {
							t.Fatalf("starved capacity never reached a third choice (deepest %d, %d rebuilds): the rebuild path is untested", deepestSeen, rebuildsSeen)
						}
					})
				}
			}
		}
	}
}

// TestSolveWithScratchAllocatesOnlyTheAssignment pins Options.Scratch's
// promise on a warm workspace: a full GreZ-GreC solve allocates the
// returned Assignment and its two slices, nothing else — on the raw matrix
// and through a provider that materializes rows, counting from the rows and
// from a late index.
func TestSolveWithScratchAllocatesOnlyTheAssignment(t *testing.T) {
	base, _ := grecProblem(xrand.New(99), 8, 9)
	for i := range base.ServerCaps {
		base.ServerCaps[i] *= 3 // GreZ places the zones itself here
	}
	for _, tc := range []struct {
		name string
		p    *Problem
		late *LateIndex
	}{{"dense", base, nil}, {"coord", sparseCoordProblem(base), nil},
		{"dense-indexed", base, &LateIndex{}}, {"coord-indexed", sparseCoordProblem(base), &LateIndex{}}} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Scratch: NewWorkspace(), Late: tc.late}
			solve := func() {
				if _, err := GreZGreC.Solve(nil, tc.p, opt); err != nil {
					t.Fatal(err)
				}
			}
			solve() // grow the workspace
			if late, _ := opt.Scratch.GreCCounts(); late == 0 {
				t.Fatal("no late clients: GreC's second pass did not run")
			}
			solve() // the second solve of an indexed workspace reads the index
			want := CostMatrixFromRows
			if tc.late != nil {
				want = CostMatrixFromIndex
			}
			if got := opt.Scratch.CostMatrixSource(); got != want {
				t.Fatalf("warm solve built the matrix from %q, want %q", got, want)
			}
			if allocs := testing.AllocsPerRun(20, solve); allocs > 3 {
				t.Fatalf("%v allocations per solve, want 3 (the Assignment, ZoneServer, ClientContact)", allocs)
			}
		})
	}
}

// TestWorkspaceRetainsNoClientsTimesServers bounds what a solve leaves in
// its workspace: O(clients + servers × zones), however many clients are
// late. Every slice field is counted by reflection, so scratch added later
// is held to the same bound — a preference list per late client
// (late × servers × 16 bytes, 2.5 MB here) cannot come back unnoticed.
func TestWorkspaceRetainsNoClientsTimesServers(t *testing.T) {
	const m, n, k = 40, 10, 4000
	rng := xrand.New(5)
	p := &Problem{
		ServerCaps:  make([]float64, m),
		ClientZones: make([]int, k),
		NumZones:    n,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           100,
	}
	for i := range p.SS {
		p.SS[i] = make([]float64, m)
		p.ServerCaps[i] = k
	}
	for j := range p.CS {
		p.ClientZones[j], p.ClientRT[j] = rng.IntN(n), 0.1
		p.CS[j] = make([]float64, m)
		for i := range p.CS[j] {
			p.CS[j][i] = rng.Uniform(150, 400) // everyone is late everywhere
		}
	}
	w := NewWorkspace()
	if _, err := GreZGreC.Solve(nil, p, Options{Scratch: w}); err != nil {
		t.Fatal(err)
	}
	if late, _ := w.GreCCounts(); late != k {
		t.Fatalf("%d late clients, want all %d", late, k)
	}
	retained := 0
	v := reflect.ValueOf(w).Elem()
	for f := 0; f < v.NumField(); f++ {
		if fv := v.Field(f); fv.Kind() == reflect.Slice {
			retained += fv.Cap() * int(fv.Type().Elem().Size())
		}
	}
	if budget := 64*k + 64*m*n; retained > budget {
		t.Fatalf("workspace retains %d bytes after a %d-client × %d-server solve, budget %d (64 B a client + 64 B a server-zone pair)", retained, k, m, budget)
	}
}

// TestLateIndexRetainsClientsAndLateChoices bounds what a late index keeps
// after a solve: its bits, 8 B × ⌈m/64⌉ a client, one more bit a client for
// which choices hold, and GreC's choices, 24 B each for at most 4 × (late
// clients of the last solve) + 64 entries.
// Nothing scales with clients × servers, and a solve with few late clients
// after one with many gives the choices' memory back. Every slice field is
// counted by reflection, so state added later is held to the same bound.
func TestLateIndexRetainsClientsAndLateChoices(t *testing.T) {
	const m, n, k = 40, 10, 4000
	rng := xrand.New(6)
	problem := func(late int) *Problem {
		p := &Problem{
			ServerCaps:  make([]float64, m),
			ClientZones: make([]int, k),
			NumZones:    n,
			ClientRT:    make([]float64, k),
			CS:          make([][]float64, k),
			SS:          make([][]float64, m),
			D:           100,
		}
		for i := range p.SS {
			p.SS[i] = make([]float64, m)
			p.ServerCaps[i] = k
		}
		for j := range p.CS {
			p.ClientZones[j], p.ClientRT[j] = rng.IntN(n), 0.1
			p.CS[j] = make([]float64, m)
			lo, hi := 0.0, 90.0
			if j < late {
				lo, hi = 150, 400 // late everywhere
			}
			for i := range p.CS[j] {
				p.CS[j][i] = rng.Uniform(lo, hi)
			}
		}
		return p
	}
	li := &LateIndex{}
	opt := Options{Scratch: NewWorkspace(), Late: li}
	for _, late := range []int{k, 10} {
		p := problem(late)
		for solve := 0; solve < 2; solve++ { // filling, then from the index
			if _, err := GreZGreC.Solve(nil, p, opt); err != nil {
				t.Fatal(err)
			}
			if got, _ := opt.Scratch.GreCCounts(); got != late {
				t.Fatalf("%d late clients, want %d", got, late)
			}
		}
		retained := 0
		v := reflect.ValueOf(li).Elem()
		for f := 0; f < v.NumField(); f++ {
			if fv := v.Field(f); fv.Kind() == reflect.Slice {
				retained += fv.Cap() * int(fv.Type().Elem().Size())
			}
		}
		if budget := 8*((m+63)/64)*k + 8*((k+63)/64) + 24*(4*late+64); retained > budget {
			t.Fatalf("late index retains %d bytes after a %d-client × %d-server solve with %d late clients, budget %d (8 B × ⌈m/64⌉ + 1 bit a client, 24 B × (4 × late + 64))",
				retained, k, m, late, budget)
		}
	}
}
