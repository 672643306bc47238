package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"dvecap/internal/xrand"
)

// providerProblem rebuilds p behind a delay provider of the given kind with
// FULL measured coverage: every dense row is streamed through AppendClient,
// so the coordinate provider holds an override for every pair and the
// shared-row provider holds every row verbatim (deduplicated). Full coverage
// is the precondition for bit-identical equivalence with the raw matrix —
// the property this suite proves.
func providerProblem(p *Problem, kind string) *Problem {
	q := p.Clone()
	var dp DelayProvider
	switch kind {
	case ProviderCoord:
		cp := NewCoordProviderFromSS(q.SS, 0)
		for _, row := range q.CS {
			cp.AppendClient(row)
		}
		dp = cp
	case ProviderSharedRow:
		sp := NewSharedRowProvider(q.NumServers())
		for _, row := range q.CS {
			sp.AppendClient(row)
		}
		dp = sp
	default:
		panic("unknown provider kind " + kind)
	}
	q.CS = nil
	q.Delays = dp
	return q
}

// providerKinds enumerates every DelayProvider implementation; equivalence
// and durability suites range over it so a new provider is automatically
// held to the oracle contract.
var providerKinds = []string{ProviderCoord, ProviderSharedRow}

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

// TestProviderMatchesDenseOracle is the tentpole's proof obligation: for
// every provider kind, the identical solve + churn + topology op-stream is
// driven through a provider-backed problem and through the retained
// raw-matrix path (the oracle), and every step must agree bit-for-bit —
// delays, assignments, QoS counts, exact float costs — at workers 1 and 4.
// Both lanes run their own RNG from the same seed, so any divergence is the
// provider's, not the stream's.
func TestProviderMatchesDenseOracle(t *testing.T) {
	for _, kind := range providerKinds {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", kind, workers), func(t *testing.T) {
				for trial := 0; trial < 6; trial++ {
					seed := uint64(52000 + trial)
					opt := Options{Overflow: SpillLargestResidual, Workers: workers}

					rngD := xrand.New(seed)
					pd := randomProblem(rngD.Split(), trial%3 == 0).Clone()
					rngP := xrand.New(seed)
					pp := providerProblem(randomProblem(rngP.Split(), trial%3 == 0), kind)

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
						checkLateIndex(t, evD)
						checkLateIndex(t, evP)
					}
					// The provider lane must also survive the oracle's own
					// from-scratch consistency check.
					checkDynState(t, evP)
				}
			})
		}
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
// budget regression test leans on: all positive, and the shared-row
// provider reports far less than the raw matrix costs when every client
// shares one row.
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
	db, sb := k*(8*m+24), shared.MemoryBytes() // raw: a row and its slice header per client
	if sb <= 0 {
		t.Fatalf("MemoryBytes: shared %d, want > 0", sb)
	}
	if sb*4 > db {
		t.Fatalf("shared-row provider reports %d bytes for %d identical rows; the raw matrix costs %d — expected at least 4x dedup", sb, k, db)
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
