package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dvecap/internal/xrand"
)

// providerProblem rebuilds p in the delay store of the given kind with FULL
// measured coverage: the exact store (ProviderSharedRow) is what Clone
// builds, and the coordinate provider receives every row through
// AppendClient, so it holds an override for every pair. Full coverage is
// the precondition for bit-identical equivalence with the exact store — the
// property this suite proves.
func providerProblem(p *Problem, kind string) *Problem {
	q := p.Clone()
	switch kind {
	case ProviderSharedRow:
	case ProviderCoord:
		cp := NewCoordProviderFromSS(q.SS, 0)
		row := make([]float64, p.NumServers())
		for j := 0; j < p.NumClients(); j++ {
			p.CopyCSRow(j, row) // p's own rows: a NaN stays unmeasured
			cp.AppendClient(row)
		}
		q.Delays = cp
	default:
		panic("unknown provider kind " + kind)
	}
	return q
}

// providerKinds enumerates the delay stores — the exact store and the
// coordinate provider; round-trip, isolation and fuzz suites range over it
// so a new store is automatically held to the same contract.
var providerKinds = []string{ProviderSharedRow, ProviderCoord}

// compareLanes asserts the provider lane's problem, assignment and derived
// evaluator state are BIT-identical to the dense oracle lane's.
func compareLanes(t *testing.T, label string, evD, evP *Evaluator) {
	t.Helper()
	pd, pp := evD.p, evP.p
	if pd.NumServers() != pp.NumServers() || pd.NumClients() != pp.NumClients() || pd.NumZones != pp.NumZones {
		t.Fatalf("%s: dims diverged: oracle %dx%d/%d zones, provider %dx%d/%d zones", label,
			pd.NumClients(), pd.NumServers(), pd.NumZones, pp.NumClients(), pp.NumServers(), pp.NumZones)
	}
	for j := 0; j < pd.NumClients(); j++ {
		for i := 0; i < pd.NumServers(); i++ {
			if d, p := pd.CSAt(j, i), pp.CSAt(j, i); d != p {
				t.Fatalf("%s: CS[%d][%d] = %v via provider, oracle has %v", label, j, i, p, d)
			}
		}
	}
	sameAssignment(t, label, evD.Assignment(), evP.Assignment())
	if evD.WithQoS() != evP.WithQoS() {
		t.Fatalf("%s: withQoS = %d via provider, oracle has %d", label, evP.WithQoS(), evD.WithQoS())
	}
	if evD.RAPCost() != evP.RAPCost() {
		t.Fatalf("%s: rapCost = %v via provider, oracle has %v", label, evP.RAPCost(), evD.RAPCost())
	}
	if evD.TotalLoad() != evP.TotalLoad() {
		t.Fatalf("%s: totalLoad = %v via provider, oracle has %v", label, evP.TotalLoad(), evD.TotalLoad())
	}
}

// TestProviderMatchesDenseOracle: the identical solve + churn + topology
// op-stream is driven through a fully measured coordinate-provider problem
// and through the exact store (the oracle; FuzzDelayProvider holds that one
// to plain rows), and every step must agree bit-for-bit — delays,
// assignments, QoS counts, exact float costs — at workers 1 and 4. Both
// lanes run their own RNG from the same seed, so any divergence is the
// provider's, not the stream's.
func TestProviderMatchesDenseOracle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("coord/workers=%d", workers), func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				seed := uint64(52000 + trial)
				opt := Options{Overflow: SpillLargestResidual, Workers: workers}

				rngD := xrand.New(seed)
				pd := randomProblem(rngD.Split(), trial%3 == 0).Clone()
				rngP := xrand.New(seed)
				pp := providerProblem(randomProblem(rngP.Split(), trial%3 == 0), ProviderCoord)

				ad, err := GreZGreC.Solve(rngD.Split(), pd, opt)
				if err != nil {
					t.Fatalf("trial %d: oracle solve: %v", trial, err)
				}
				ap, err := GreZGreC.Solve(rngP.Split(), pp, opt)
				if err != nil {
					t.Fatalf("trial %d: provider solve: %v", trial, err)
				}
				evD := NewEvaluator(pd, ad)
				evP := NewEvaluator(pp, ap)
				evD.SetWorkers(workers)
				evP.SetWorkers(workers)
				compareLanes(t, fmt.Sprintf("trial %d after solve", trial), evD, evP)
				attachLateIndex(t, evD, workers)
				attachLateIndex(t, evP, workers)

				for step := 0; step < 50; step++ {
					topoStep(evD, rngD, rngD.IntN(12))
					topoStep(evP, rngP, rngP.IntN(12))
					compareLanes(t, fmt.Sprintf("trial %d step %d", trial, step), evD, evP)
					audit(t, evD)
					audit(t, evP)
				}
			}
		})
	}
}

// TestExactStoreReadsIgnoreGroupIDs: recovery rebuilds the exact store from
// a snapshot's per-client rows, so its group ids, refcounts and free list
// are not the ones the live store had reached. Every read is an exact row
// lookup, so nothing may depend on them. Mid-stream — clients joining with
// rows other clients already have, leaving, diverging, servers coming and
// going — the store is rebuilt from DenseRows, its group table shown to
// differ, and the live and rebuilt problems are driven through the same
// further churn and re-solves: every step must agree bit for bit.
func TestExactStoreReadsIgnoreGroupIDs(t *testing.T) {
	opt := Options{Overflow: SpillLargestResidual}
	// churn is topoStep plus joins that repeat a present client's row, the
	// way clients at one network node share their delays.
	churn := func(ev *Evaluator, rng *xrand.RNG) {
		if k := ev.NumClients(); k > 0 && rng.IntN(3) == 0 {
			row := append([]float64(nil), ev.p.CSRow(rng.IntN(k), nil)...)
			ev.AddClient(rng.IntN(ev.p.NumZones), rng.Uniform(0.05, 0.5), row)
			return
		}
		topoStep(ev, rng, rng.IntN(topoOps))
	}
	renumbered := 0
	for trial := 0; trial < 6; trial++ {
		rng := xrand.New(uint64(61000 + trial))
		p := randomProblem(rng.Split(), trial%2 == 0).Clone()
		a, err := GreZGreC.Solve(rng.Split(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(p, a)
		for step := 0; step < 60; step++ {
			churn(ev, rng)
		}
		raw := *p
		raw.Delays, raw.CS = nil, p.DenseRows()
		q := raw.Clone()
		if !reflect.DeepEqual(p.Delays.State(), q.Delays.State()) {
			renumbered++
		}
		evP := NewEvaluator(p, ev.Assignment())
		evQ := NewEvaluator(q, ev.Assignment())
		compareLanes(t, fmt.Sprintf("trial %d rebuilt", trial), evP, evQ)
		rngP, rngQ := xrand.New(uint64(trial)), xrand.New(uint64(trial))
		for step := 0; step < 60; step++ {
			churn(evP, rngP)
			churn(evQ, rngQ)
			compareLanes(t, fmt.Sprintf("trial %d step %d", trial, step), evP, evQ)
		}
		aP, errP := GreZGreC.Solve(rngP.Split(), p, opt)
		aQ, errQ := GreZGreC.Solve(rngQ.Split(), q, opt)
		if errP != nil || errQ != nil {
			t.Fatalf("trial %d: re-solve: %v / %v", trial, errP, errQ)
		}
		sameAssignment(t, fmt.Sprintf("trial %d re-solve", trial), aP, aQ)
	}
	if renumbered == 0 {
		t.Fatal("no rebuilt store had a group table other than the live one's: the proof proved nothing")
	}
}

// TestProviderStateRoundTripMidStream snapshots the provider mid-op-stream,
// reconstructs it via NewProviderFromState, and drives BOTH copies through
// the same further mutations: every read must stay bit-identical. This is
// the exact property durable-session recovery leans on — a restored
// provider is not just value-equal, its future trajectory is identical.
func TestProviderStateRoundTripMidStream(t *testing.T) {
	for _, kind := range providerKinds {
		t.Run(kind, func(t *testing.T) {
			rng := xrand.New(777)
			p := providerProblem(randomProblem(rng.Split(), false), kind)
			a, err := GreZGreC.Solve(rng.Split(), p, Options{Overflow: SpillLargestResidual})
			if err != nil {
				t.Fatal(err)
			}
			ev := NewEvaluator(p, a)
			for step := 0; step < 25; step++ {
				topoStep(ev, rng, rng.IntN(12))
			}
			restored, err := NewProviderFromState(p.Delays.State())
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			mutate := func(dp DelayProvider, r *xrand.RNG) {
				m, k := dp.NumServers(), dp.NumClients()
				switch r.IntN(5) {
				case 0:
					dp.AppendClient(randomDelayRow(r, m))
				case 1:
					if k > 1 {
						dp.SwapRemoveClient(r.IntN(k))
					}
				case 2:
					if k > 0 {
						dp.SetClientServerDelay(r.IntN(k), r.IntN(m), r.Uniform(0, 500))
					}
				case 3:
					col := make([]float64, k)
					for j := range col {
						col[j] = r.Uniform(0, 500)
					}
					dp.AppendServer(col)
				default:
					if k > 0 {
						dp.SetClientDelays(r.IntN(k), randomDelayRow(r, m))
					}
				}
			}
			rngA, rngB := xrand.New(31), xrand.New(31)
			for step := 0; step < 40; step++ {
				mutate(p.Delays, rngA)
				mutate(restored, rngB)
				if p.Delays.NumClients() != restored.NumClients() || p.Delays.NumServers() != restored.NumServers() {
					t.Fatalf("step %d: dims diverged after round trip", step)
				}
				buf := make([]float64, p.Delays.NumServers())
				buf2 := make([]float64, p.Delays.NumServers())
				for j := 0; j < p.Delays.NumClients(); j++ {
					ra, rb := p.Delays.Row(j, buf), restored.Row(j, buf2)
					for i := range ra {
						if ra[i] != rb[i] {
							t.Fatalf("step %d: restored CS[%d][%d] = %v, original %v", step, j, i, rb[i], ra[i])
						}
					}
				}
			}
		})
	}
}

// TestProviderStateRefusesDenseKind: the "dense" kind was reserved for a
// provider wrapping plain rows that no build ever snapshotted; it is refused
// by name instead of being mistaken for an unknown future kind.
func TestProviderStateRefusesDenseKind(t *testing.T) {
	var st ProviderState
	if err := json.Unmarshal([]byte(`{"kind":"dense","dense":{"servers":2,"rows":[[1,2]]}}`), &st); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProviderFromState(&st); !errors.Is(err, ErrDenseProviderState) {
		t.Fatalf("dense provider state: err = %v, want ErrDenseProviderState", err)
	}
}

// TestProviderStateRefusesInconsistentSharedRows: a shared-row state whose
// refcounts, free list or dimensions disagree with its group table is
// refused — accepted, a free list naming a live group let the next join
// overwrite a client's row, and a refcount above the member count let a
// leave keep a dead row. The consistent control, with a freed slot, loads,
// and a join reuses the free slot without touching the live row.
func TestProviderStateRefusesInconsistentSharedRows(t *testing.T) {
	for _, tc := range []struct {
		name    string
		st      SharedRowState
		wantSub string // "" = accepted
	}{
		{"consistent", SharedRowState{Servers: 2, Group: []int32{0, 0}, Rows: [][]float64{{1, 2}, {}}, Refs: []int32{2, 0}, Free: []int32{1}}, ""},
		{"free names a live group", SharedRowState{Servers: 2, Group: []int32{0}, Rows: [][]float64{{1, 2}}, Refs: []int32{1}, Free: []int32{0}}, "frees group 0: out of range, live"},
		{"refcount above members", SharedRowState{Servers: 2, Group: []int32{0}, Rows: [][]float64{{1, 2}}, Refs: []int32{2}}, "refcount 2 but 1 members"},
		{"refcount below members", SharedRowState{Servers: 2, Group: []int32{0, 0}, Rows: [][]float64{{1, 2}}, Refs: []int32{1}}, "refcount 1 but 2 members"},
		{"negative refcount", SharedRowState{Servers: 2, Group: []int32{}, Rows: [][]float64{{}}, Refs: []int32{-1}, Free: []int32{0}}, "refcount -1 but 0 members"},
		{"free out of range", SharedRowState{Servers: 2, Group: []int32{0}, Rows: [][]float64{{1, 2}, {}}, Refs: []int32{1, 0}, Free: []int32{2}}, "frees group 2: out of range"},
		{"free negative", SharedRowState{Servers: 2, Group: []int32{0}, Rows: [][]float64{{1, 2}, {}}, Refs: []int32{1, 0}, Free: []int32{-1}}, "frees group -1: out of range"},
		{"free duplicated", SharedRowState{Servers: 2, Group: []int32{0}, Rows: [][]float64{{1, 2}, {}}, Refs: []int32{1, 0}, Free: []int32{1, 1}}, "frees group 1: out of range, live or freed twice"},
		{"dead group not freed", SharedRowState{Servers: 2, Group: []int32{0}, Rows: [][]float64{{1, 2}, {}}, Refs: []int32{1, 0}}, "1 dead groups but frees 0"},
		{"negative servers", SharedRowState{Servers: -1, Group: []int32{}, Rows: [][]float64{}, Refs: []int32{}}, "has -1 servers"},
		{"client in missing group", SharedRowState{Servers: 2, Group: []int32{3}, Rows: [][]float64{{1, 2}}, Refs: []int32{1}}, "client 0 in group 3"},
		{"short live row", SharedRowState{Servers: 2, Group: []int32{0}, Rows: [][]float64{{1}}, Refs: []int32{1}}, "group 0 has 1 entries"},
		{"rows and refcounts disagree", SharedRowState{Servers: 2, Group: []int32{0}, Rows: [][]float64{{1, 2}}, Refs: []int32{1, 0}}, "1 rows and 2 refcounts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.st
			dp, err := NewProviderFromState(&ProviderState{Kind: ProviderSharedRow, Shared: &st})
			if tc.wantSub != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
					t.Fatalf("err = %v, want a refusal mentioning %q", err, tc.wantSub)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			dp.AppendClient([]float64{9, 9})
			for j, want := range [][]float64{{1, 2}, {1, 2}, {9, 9}} {
				if got := dp.Row(j, nil); got[0] != want[0] || got[1] != want[1] {
					t.Fatalf("after a join, client %d reads %v, want %v", j, got, want)
				}
			}
		})
	}
}

// TestProviderCloneIsolation pins Clone's no-shared-mutable-state contract:
// mutating a clone never reaches the original, and vice versa.
func TestProviderCloneIsolation(t *testing.T) {
	for _, kind := range providerKinds {
		t.Run(kind, func(t *testing.T) {
			rng := xrand.New(11)
			p := providerProblem(randomProblem(rng.Split(), false), kind)
			orig := p.Delays
			before := make([][]float64, orig.NumClients())
			for j := range before {
				before[j] = append([]float64(nil), orig.Row(j, make([]float64, orig.NumServers()))...)
			}
			cl := orig.Clone()
			for j := 0; j < cl.NumClients(); j++ {
				cl.SetClientDelays(j, randomDelayRow(rng, cl.NumServers()))
			}
			cl.AppendServer(nil)
			if cl.NumServers() != orig.NumServers()+1 {
				t.Fatalf("clone has %d servers, want %d", cl.NumServers(), orig.NumServers()+1)
			}
			buf := make([]float64, orig.NumServers())
			for j := range before {
				got := orig.Row(j, buf)
				for i := range before[j] {
					if got[i] != before[j][i] {
						t.Fatalf("clone mutation reached original: CS[%d][%d] = %v, want %v", j, i, got[i], before[j][i])
					}
				}
			}
		})
	}
}

// TestProviderMemoryBytes sanity-checks the MemoryBytes estimates the
// budget regression test leans on: all positive, and the exact store
// reports far less than a row per client costs when every client shares
// one row.
func TestProviderMemoryBytes(t *testing.T) {
	m, k := 8, 4096
	row := make([]float64, m)
	for i := range row {
		row[i] = float64(10 + i)
	}
	shared := NewSharedRowProvider(m)
	for j := 0; j < k; j++ {
		shared.AppendClient(row)
	}
	db, sb := k*(8*m+24), shared.MemoryBytes() // a row and its slice header per client
	if sb <= 0 {
		t.Fatalf("MemoryBytes: shared %d, want > 0", sb)
	}
	if sb*4 > db {
		t.Fatalf("exact store reports %d bytes for %d identical rows; a row per client costs %d — expected at least 4x dedup", sb, k, db)
	}
	coord := NewCoordProviderFromSS([][]float64{{0, 40}, {40, 0}}, 0)
	coord.AddClientAt([]float64{1, 2, 3, 4, 5}, nil, nil)
	if coord.MemoryBytes() <= 0 {
		t.Fatalf("coord MemoryBytes = %d, want > 0", coord.MemoryBytes())
	}
}

// TestCoordRowMatchesClientServerAllDims pins CoordProvider.Row's two
// kernel branches — unrolled at DefaultCoordDim, generic elsewhere — to the
// single-entry read: at every dimension 1…16, for clients with no, some
// and full overrides, before and after the server set changes, Row(j)[i]
// carries exactly ClientServer(j, i)'s bits.
func TestCoordRowMatchesClientServerAllDims(t *testing.T) {
	for dim := 1; dim <= 16; dim++ {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			rng := xrand.New(uint64(8800 + dim))
			const m, k = 13, 40
			ss := make([][]float64, m)
			for i := range ss {
				ss[i] = make([]float64, m)
			}
			for i := 0; i < m; i++ {
				for l := i + 1; l < m; l++ {
					d := rng.Uniform(1, 300)
					ss[i][l], ss[l][i] = d, d
				}
			}
			cp := NewCoordProviderFromSS(ss, dim)
			if cp.Dim() != dim {
				t.Fatalf("provider has dimension %d, want %d", cp.Dim(), dim)
			}
			coord := make([]float64, dim)
			for j := 0; j < k; j++ {
				for c := range coord {
					coord[c] = rng.Uniform(-200, 200)
				}
				var srvs []int32
				var vals []float64
				for i := 0; i < m; i++ {
					// j%3 == 0: prediction only; 1: sparse overrides; 2: full row.
					if j%3 == 2 || (j%3 == 1 && rng.IntN(4) == 0) {
						srvs, vals = append(srvs, int32(i)), append(vals, rng.Uniform(0, 500))
					}
				}
				cp.AddClientAt(coord, srvs, vals)
			}
			check := func(stage string) {
				t.Helper()
				buf := make([]float64, cp.NumServers())
				for j := 0; j < cp.NumClients(); j++ {
					row := cp.Row(j, buf)
					for i, got := range row {
						if want := cp.ClientServer(j, i); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: Row(%d)[%d] = %v (%#x), ClientServer = %v (%#x)", stage, j, i,
								got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
			check("as built")
			cp.AppendServer(nil)
			check("after AppendServer")
			cp.SwapRemoveServer(2)
			cp.SwapRemoveClient(5)
			check("after swap-removes")
		})
	}
}

// TestCoordDuplicateOverridesKeepLast: a sparse join that lists a server
// more than once keeps the value given last, and Row and ClientServer
// agree on it. A duplicate must not count toward coverage either: three
// entries naming two of three servers leave the third predicted.
func TestCoordDuplicateOverridesKeepLast(t *testing.T) {
	ss := [][]float64{{0, 40, 70}, {40, 0, 50}, {70, 50, 0}}
	for _, tc := range []struct {
		name string
		add  func(cp *CoordProvider, srvs []int32, vals []float64) int
	}{
		{"AddClientAt", func(cp *CoordProvider, srvs []int32, vals []float64) int {
			return cp.AddClientAt([]float64{3, 1, 4, 1, 5}, srvs, vals)
		}},
		{"AddClientFitted", (*CoordProvider).AddClientFitted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := NewCoordProviderFromSS(ss, 0)
			pair := tc.add(cp, []int32{1, 1}, []float64{10, 20})
			partial := tc.add(cp, []int32{2, 0, 2}, []float64{5, 8, 7})
			buf := make([]float64, 3)
			for _, w := range []struct {
				j, i int
				want float64
			}{{pair, 1, 20}, {partial, 0, 8}, {partial, 2, 7}} {
				if got := cp.Row(w.j, buf)[w.i]; got != w.want {
					t.Errorf("Row(%d)[%d] = %v, want %v", w.j, w.i, got, w.want)
				}
			}
			for _, j := range []int{pair, partial} {
				row := cp.Row(j, buf)
				for i, got := range row {
					if want := cp.ClientServer(j, i); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("Row(%d)[%d] = %v, ClientServer = %v", j, i, got, want)
					}
				}
			}
			if _, err := NewProviderFromState(cp.State()); err != nil {
				t.Errorf("state of deduplicated overrides refused: %v", err)
			}
		})
	}
}

// TestCoordMemoryCountsDeferredFits: fully measured joins leave their
// coordinate fits pending in a table MemoryBytes counts; State fits them
// and empties it.
func TestCoordMemoryCountsDeferredFits(t *testing.T) {
	cp := NewCoordProviderFromSS([][]float64{{0, 40}, {40, 0}}, 0)
	cp.AppendClient([]float64{12, math.NaN()})
	before := cp.MemoryBytes()
	const joins = 100
	for j := 0; j < joins; j++ {
		cp.AppendClient([]float64{float64(10 + j), 30})
	}
	if len(cp.unfit) != joins {
		t.Fatalf("%d fits pending after %d full-row joins, want %d", len(cp.unfit), joins, joins)
	}
	withTable := cp.MemoryBytes()
	cp.State()
	if len(cp.unfit) != 0 {
		t.Fatalf("%d fits pending after State, want 0", len(cp.unfit))
	}
	if got := withTable - cp.MemoryBytes(); got != joins*unfitEntryBytes {
		t.Fatalf("table counted as %d bytes (%d → %d), want %d", got, before, withTable, joins*unfitEntryBytes)
	}
}
