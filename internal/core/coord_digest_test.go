package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"dvecap/internal/xrand"
)

// coordDigestStream drives a coordinate-provider problem through a fixed
// mutation stream and folds what it reports and what it stores into one
// SHA-256: every client's CSRow after every op, and the State() JSON — the
// only place a fully measured client's fitted coordinate shows — after
// every State call the stream makes. The stream mixes full- and
// partial-row appends; SetCSRow and SetCSAt (NaN included) on fully measured
// clients; AppendCSCol with a nil and a measured column; SwapRemoveCSCol;
// swap-removal of a fully measured client and of the last client; Clone;
// and State round trips.
func coordDigestStream(t *testing.T, dim int, seed uint64, steps int) string {
	t.Helper()
	rng := xrand.New(seed)
	m := 3
	ss := make([][]float64, m)
	for i := range ss {
		ss[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for l := i + 1; l < m; l++ {
			d := rng.Uniform(5, 220)
			ss[i][l], ss[l][i] = d, d
		}
	}
	p := &Problem{ServerCaps: make([]float64, m), Delays: NewCoordProviderFromSS(ss, dim)}
	var shadow [][]float64 // NaN = unmeasured; only coverage is read from it
	h := sha256.New()
	var word [8]byte
	fold := func(v float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	foldState := func() {
		b, err := json.Marshal(p.Delays.State())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	measured := func() float64 {
		if rng.IntN(40) == 0 {
			return UnmeasuredDelayMs // stored verbatim, skipped by fits
		}
		return rng.Uniform(1, 400)
	}
	row := func(nanEvery int) []float64 {
		r := make([]float64, m)
		for i := range r {
			r[i] = measured()
		}
		if nanEvery > 0 {
			r[rng.IntN(m)] = math.NaN()
			for i := range r {
				if rng.IntN(nanEvery) == 0 {
					r[i] = math.NaN()
				}
			}
		}
		return r
	}
	full := func(j int) bool {
		for _, d := range shadow[j] {
			if d != d {
				return false
			}
		}
		return true
	}
	// pickFull returns a fully measured client, or -1 when there is none.
	pickFull := func() int {
		var cands []int
		for j := range shadow {
			if full(j) {
				cands = append(cands, j)
			}
		}
		if len(cands) == 0 {
			return -1
		}
		return cands[rng.IntN(len(cands))]
	}
	removeClient := func(j int) {
		l := len(shadow) - 1
		p.SwapRemoveCSRow(j)
		p.ClientZones = p.ClientZones[:l]
		shadow[j] = shadow[l]
		shadow = shadow[:l]
	}
	buf := make([]float64, 16)
	for step := 0; step < steps; step++ {
		k := len(shadow)
		op := rng.IntN(21)
		switch {
		case op < 5: // append a fully measured client
			if k >= 64 {
				continue
			}
			r := row(0)
			p.AppendCSRow(r)
			p.ClientZones = append(p.ClientZones, 0)
			shadow = append(shadow, r)
		case op < 7: // append a partially measured client
			if k >= 64 {
				continue
			}
			r := row(3)
			p.AppendCSRow(r)
			p.ClientZones = append(p.ClientZones, 0)
			shadow = append(shadow, r)
		case op == 7: // replace a full row with another full row
			if j := pickFull(); j >= 0 {
				r := row(0)
				p.SetCSRow(j, r)
				shadow[j] = r
			}
		case op == 8: // replace a full row with one that has NaN entries
			if j := pickFull(); j >= 0 {
				r := row(4)
				p.SetCSRow(j, r)
				shadow[j] = r
			}
		case op == 9: // overlay one measured pair on a full row
			if j := pickFull(); j >= 0 {
				i, d := rng.IntN(m), measured()
				p.SetCSAt(j, i, d)
				shadow[j][i] = d
			}
		case op == 10: // un-measure one pair of a full row
			if j := pickFull(); j >= 0 {
				i := rng.IntN(m)
				p.SetCSAt(j, i, math.NaN())
				shadow[j][i] = math.NaN()
			}
		case op == 11: // append an unmeasured server column
			if m >= 12 {
				continue
			}
			p.AppendCSCol(nil)
			p.ServerCaps = append(p.ServerCaps, 0)
			for j := range shadow {
				shadow[j] = append(shadow[j], math.NaN())
			}
			m++
		case op == 12: // append a measured server column, a few NaN
			if m >= 12 {
				continue
			}
			col := make([]float64, k)
			for j := range col {
				col[j] = measured()
				if rng.IntN(5) == 0 {
					col[j] = math.NaN()
				}
			}
			p.AppendCSCol(col)
			p.ServerCaps = append(p.ServerCaps, 0)
			for j := range shadow {
				shadow[j] = append(shadow[j], col[j])
			}
			m++
		case op == 13 || op == 20: // swap-remove a server column, down to
			// one server: a fit there starts on its only anchor, and its
			// seed picks the direction it leaves in
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
		case op == 14: // swap-remove a fully measured client
			if j := pickFull(); j >= 0 {
				removeClient(j)
			}
		case op == 15: // swap-remove the last client
			if k > 0 {
				removeClient(k - 1)
			}
		case op == 16: // swap-remove any client
			if k > 0 {
				removeClient(rng.IntN(k))
			}
		case op == 17: // carry on with a clone
			p = p.Clone()
		case op == 18: // carry on with a provider restored from State
			st := p.Delays.State()
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
			var back ProviderState
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			dp, err := NewProviderFromState(&back)
			if err != nil {
				t.Fatal(err)
			}
			p.Delays = dp
		default: // snapshot the state without restoring from it
			if rng.IntN(3) == 0 {
				foldState()
			}
		}
		h.Write([]byte{byte(op), byte(m), byte(len(shadow))})
		for j := range shadow {
			for _, d := range p.CSRow(j, buf[:m]) {
				fold(d)
			}
		}
	}
	foldState()
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCoordProviderDigest pins the coordinate provider's reads and stored
// state over fixed mutation streams at dimensions 1, 5 (the unrolled Row
// kernel) and 16 to recorded SHA-256s. The oracle and fuzz suites check
// self-consistency and full coverage; this one also catches a coordinate
// fitted from other inputs than a join's own (server coordinates, override
// list and seed), because that coordinate reaches State and, once its
// client loses coverage, every read of an unmeasured pair.
func TestCoordProviderDigest(t *testing.T) {
	want := map[int]string{
		1:  "319784d4884b23e2569e3d69a4184a81218b0a185bd543c411e2b7b63a9e623f",
		5:  "4d818f74dc6cb2a2fa20a7a9ccd6d9c07d7e51fdbc3e9318973988c6868a7eca",
		16: "348e2b1ad77d13c63451afa6643d13f0344237474aba014f0aa0e8367b38d134",
	}
	for _, dim := range []int{1, 5, 16} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			if got := coordDigestStream(t, dim, uint64(3400+dim), 1500); got != want[dim] {
				t.Errorf("digest %s, recorded %s", got, want[dim])
			}
		})
	}
}
