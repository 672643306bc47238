package core

import (
	"math"
	"testing"

	"dvecap/internal/xrand"
)

// rawKind names the raw-matrix arm of Problem's delay storage beside the
// provider kinds.
const rawKind = "raw"

// checkAgainstShadow compares every read of p's delay store against the
// from-scratch dense shadow. Shadow NaN marks an unmeasured pair: the raw
// matrix and the shared-row provider must report UnmeasuredDelayMs there,
// the coordinate provider reports its prediction — any finite non-negative
// value, but the SAME value from CSAt, CSRow and DenseRows (and, by the
// round-trip tests, from a restored copy).
func checkAgainstShadow(t *testing.T, kind string, p *Problem, shadow [][]float64, m int) {
	t.Helper()
	if dp := p.Delays; dp != nil && (dp.NumClients() != len(shadow) || dp.NumServers() != m) {
		t.Fatalf("%s: provider is %dx%d, shadow %dx%d", kind, dp.NumClients(), dp.NumServers(), len(shadow), m)
	}
	dense := p.DenseRows()
	if len(dense) != len(shadow) {
		t.Fatalf("%s: store holds %d rows, shadow %d", kind, len(dense), len(shadow))
	}
	buf := make([]float64, m)
	for j := range shadow {
		row := p.CSRow(j, buf)
		if len(row) != m || len(dense[j]) != m {
			t.Fatalf("%s: row %d has %d/%d entries, shadow %d", kind, j, len(row), len(dense[j]), m)
		}
		for i := 0; i < m; i++ {
			got := p.CSAt(j, i)
			if math.Float64bits(row[i]) != math.Float64bits(got) || math.Float64bits(dense[j][i]) != math.Float64bits(got) {
				t.Fatalf("%s: CSRow[%d][%d] = %v, DenseRows = %v but CSAt = %v", kind, j, i, row[i], dense[j][i], got)
			}
			sh := shadow[j][i]
			if !math.IsNaN(sh) {
				if got != sh {
					t.Fatalf("%s: CS[%d][%d] = %v, shadow has %v", kind, j, i, got, sh)
				}
				continue
			}
			switch kind {
			case ProviderCoord:
				if math.IsNaN(got) || got < 0 || math.IsInf(got, 0) {
					t.Fatalf("%s: unmeasured CS[%d][%d] predicted as %v, want finite >= 0", kind, j, i, got)
				}
			default:
				if got != UnmeasuredDelayMs {
					t.Fatalf("%s: unmeasured CS[%d][%d] = %v, want %v", kind, j, i, got, UnmeasuredDelayMs)
				}
			}
		}
	}
}

// driveProviderFuzz decodes ops into Problem delay-store mutations, mirrors
// each one into a plain dense shadow matrix (NaN = unmeasured), and
// cross-checks all reads after every op. Every few ops the store is copied
// through Clone and — for a provider — State/NewProviderFromState, and all
// copies must agree.
func driveProviderFuzz(t *testing.T, kind string, seed uint64, ops []byte) {
	rng := xrand.New(seed)
	m := 2 + int(seed%3)
	ss := make([][]float64, m)
	for i := range ss {
		ss[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for l := i + 1; l < m; l++ {
			d := rng.Uniform(5, 200)
			ss[i][l], ss[l][i] = d, d
		}
	}
	// The client and server slices beside the store are kept in step the way
	// the evaluator keeps them; only their lengths matter here.
	p := &Problem{ServerCaps: make([]float64, m)}
	switch kind {
	case rawKind:
	case ProviderCoord:
		// The seed also picks the dimension (0 = the default, whose Row
		// kernel is unrolled; 1…16 otherwise), so the fuzzer holds both
		// kernel branches to ClientServer.
		p.Delays = NewCoordProviderFromSS(ss, int(seed>>8)%17)
	case ProviderSharedRow:
		p.Delays = NewSharedRowProvider(m)
	}
	var shadow [][]float64
	sample := func() float64 {
		if rng.IntN(4) == 0 {
			return math.NaN() // unmeasured
		}
		return rng.Uniform(0, 500)
	}
	for step, op := range ops {
		k := len(shadow)
		switch int(op) % 6 {
		case 0: // append a client (possibly partially measured)
			if k >= 48 {
				continue
			}
			row := make([]float64, m)
			for i := range row {
				row[i] = sample()
			}
			p.AppendCSRow(row)
			p.ClientZones = append(p.ClientZones, 0)
			shadow = append(shadow, append([]float64(nil), row...))
		case 1: // swap-remove a client
			if k == 0 {
				continue
			}
			j := rng.IntN(k)
			p.SwapRemoveCSRow(j)
			p.ClientZones = p.ClientZones[:k-1]
			shadow[j] = shadow[k-1]
			shadow = shadow[:k-1]
		case 2: // replace a full delay row
			if k == 0 {
				continue
			}
			j := rng.IntN(k)
			row := make([]float64, m)
			for i := range row {
				row[i] = sample()
			}
			p.SetCSRow(j, row)
			shadow[j] = append(shadow[j][:0], row...)
		case 3: // overlay (or un-measure) one pair
			if k == 0 {
				continue
			}
			j, i := rng.IntN(k), rng.IntN(m)
			d := sample()
			p.SetCSAt(j, i, d)
			shadow[j][i] = d
		case 4: // append a server column (sometimes wholly unmeasured)
			if m >= 10 {
				continue
			}
			var col []float64
			if rng.IntN(3) > 0 {
				col = make([]float64, k)
				for j := range col {
					col[j] = sample()
				}
			}
			p.AppendCSCol(col)
			p.ServerCaps = append(p.ServerCaps, 0)
			for j := range shadow {
				d := math.NaN()
				if col != nil {
					d = col[j]
				}
				shadow[j] = append(shadow[j], d)
			}
			m++
		case 5: // swap-remove a server column
			if m <= 1 {
				continue
			}
			i := rng.IntN(m)
			p.SwapRemoveCSCol(i)
			p.ServerCaps = p.ServerCaps[:m-1]
			for j := range shadow {
				shadow[j][i] = shadow[j][m-1]
				shadow[j] = shadow[j][:m-1]
			}
			m--
		}
		checkAgainstShadow(t, kind, p, shadow, m)
		if step%8 == 7 {
			copies := []*Problem{p.Clone()}
			if p.Delays != nil {
				restored, err := NewProviderFromState(p.Delays.State())
				if err != nil {
					t.Fatalf("%s: state round trip: %v", kind, err)
				}
				q := *p
				q.Delays = restored
				copies = append(copies, &q)
			}
			buf := make([]float64, m)
			buf2 := make([]float64, m)
			for j := range shadow {
				want := p.CSRow(j, buf)
				for _, q := range copies {
					other := q.CSRow(j, buf2)
					for i := range want {
						if other[i] != want[i] {
							t.Fatalf("%s: copy disagrees at CS[%d][%d]: %v vs %v", kind, j, i, other[i], want[i])
						}
					}
				}
			}
		}
	}
}

// FuzzDelayProvider feeds arbitrary mutation op-streams — client append and
// swap-remove, row replacement, single-pair overlays, server column
// add/remove — through Problem's delay-store mutations over the raw matrix
// and every DelayProvider implementation, against a from-scratch dense
// shadow: the fuzz form of TestProviderMatchesDenseOracle extended to
// partial (NaN) measurements. Seed corpus lives in
// testdata/fuzz/FuzzDelayProvider.
func FuzzDelayProvider(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 2, 3, 4, 1, 5, 0, 3, 3, 2, 4})
	f.Add(uint64(7), []byte{0, 4, 4, 5, 5, 1, 0, 0, 2, 3})
	f.Add(uint64(1e6), []byte{0, 1, 0, 1, 4, 0, 5, 2, 2, 3, 3, 3, 4, 1})
	for dim := uint64(1); dim <= 16; dim++ { // every coordinate dimension
		f.Add(dim<<8|1, []byte{0, 0, 0, 3, 2, 3, 4, 0, 3, 5, 0, 1, 3})
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, kind := range append([]string{rawKind}, providerKinds...) {
			driveProviderFuzz(t, kind, seed, ops)
		}
	})
}
