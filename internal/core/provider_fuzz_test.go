package core

import (
	"math"
	"testing"

	"dvecap/internal/xrand"
)

// checkAgainstShadow compares every read of p's delay store against the
// from-scratch dense shadow. Shadow NaN marks an unmeasured pair: the exact
// store must report UnmeasuredDelayMs there,
// the coordinate provider reports its prediction — any finite non-negative
// value, but the SAME value from CSAt, CSRow and DenseRows (and, by the
// round-trip tests, from a restored copy).
func checkAgainstShadow(t *testing.T, kind string, p *Problem, shadow [][]float64, m int) {
	t.Helper()
	if dp := p.Delays; dp.NumClients() != len(shadow) || dp.NumServers() != m {
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

// checkSharedRowIndex checks the exact store's content index against its
// rows: each live group's kept hash is its row's hashRow (the column
// mutations update it in place), and — unless a column mutation left the
// index stale — the chain of every hash holds exactly the live groups with
// that hash.
func checkSharedRowIndex(t *testing.T, sp *SharedRowProvider) {
	t.Helper()
	indexed := 0
	for h, g := range sp.first {
		if sp.stale {
			break
		}
		for ; g >= 0; g = sp.next[g] {
			if sp.refs[g] == 0 || sp.sums[g] != h {
				t.Fatalf("index chain of %#x reaches group %d (refs %d, hash %#x)", h, g, sp.refs[g], sp.sums[g])
			}
			indexed++
		}
	}
	live := 0
	for g, refs := range sp.refs {
		if refs == 0 {
			continue
		}
		live++
		if h := hashRow(sp.row(int32(g))); sp.sums[g] != h {
			t.Fatalf("group %d keeps hash %#x, its row hashes to %#x", g, sp.sums[g], h)
		}
	}
	if !sp.stale && indexed != live {
		t.Fatalf("index holds %d groups, %d are live", indexed, live)
	}
}

// driveProviderFuzz decodes ops into Problem delay-store mutations, mirrors
// each one into a plain dense shadow matrix (NaN = unmeasured), and
// cross-checks all reads after every op. Every few ops the store is copied
// through Clone and State/NewProviderFromState, and all copies must agree.
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
		if sp, ok := p.Delays.(*SharedRowProvider); ok {
			checkSharedRowIndex(t, sp)
		}
		if step%8 == 7 {
			// The state of a clone: p keeps its deferred coordinate fits
			// (fully measured coordinate-provider clients) pending.
			restored, err := NewProviderFromState(p.Delays.Clone().State())
			if err != nil {
				t.Fatalf("%s: state round trip: %v", kind, err)
			}
			q := *p
			q.Delays = restored
			copies := []*Problem{p.Clone(), &q}
			for _, c := range copies {
				if sp, ok := c.Delays.(*SharedRowProvider); ok {
					checkSharedRowIndex(t, sp)
				}
			}
			agree := func(stage string, width int) {
				buf := make([]float64, width)
				buf2 := make([]float64, width)
				for j := range shadow {
					want := p.CSRow(j, buf)
					for _, q := range copies {
						other := q.CSRow(j, buf2)
						for i := range want {
							if math.Float64bits(other[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s: copy disagrees %s at CS[%d][%d]: %v vs %v", kind, stage, j, i, other[i], want[i])
							}
						}
					}
				}
			}
			agree("as copied", m)
			// An unmeasured column makes every client read its coordinate:
			// fits pending in p and its clone run against the same inputs
			// the restored copy's ran against. Removing the column again
			// leaves every store as the shadow has it.
			all := append(copies, p)
			for _, q := range all {
				q.AppendCSCol(nil)
			}
			agree("with a new column", m+1)
			for _, q := range all {
				q.SwapRemoveCSCol(m)
			}
		}
	}
}

// FuzzDelayProvider feeds arbitrary mutation op-streams — client append and
// swap-remove, row replacement, single-pair overlays, server column
// add/remove — through Problem's delay-store mutations over the exact store
// and the coordinate provider, against a from-scratch dense shadow (plain
// rows, the reference both are held to): the fuzz form of
// TestProviderMatchesDenseOracle extended to partial (NaN) measurements. Every eighth op the store's Clone and State
// round trips must agree with it — also once a new server column makes
// every client read its coordinate, while the live store still has
// coordinate fits pending. Seed corpus lives in
// testdata/fuzz/FuzzDelayProvider.
func FuzzDelayProvider(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 2, 3, 4, 1, 5, 0, 3, 3, 2, 4})
	f.Add(uint64(7), []byte{0, 4, 4, 5, 5, 1, 0, 0, 2, 3})
	f.Add(uint64(1e6), []byte{0, 1, 0, 1, 4, 0, 5, 2, 2, 3, 3, 3, 4, 1})
	// Appends only, then a leave: clones and restored copies are taken
	// with several fully measured clients' coordinate fits still pending.
	f.Add(uint64(3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	for dim := uint64(1); dim <= 16; dim++ { // every coordinate dimension
		f.Add(dim<<8|1, []byte{0, 0, 0, 3, 2, 3, 4, 0, 3, 5, 0, 1, 3})
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, kind := range providerKinds {
			driveProviderFuzz(t, kind, seed, ops)
		}
	})
}
