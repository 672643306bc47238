package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"dvecap/internal/xrand"
)

// sharedRowDigestStream drives a SharedRowProvider through a fixed mutation
// stream and folds its State() JSON after every op into one SHA-256. Rows
// are drawn from a small pool, so clients join, leave and diverge from
// groups they share; the stream mixes appends (NaN entries included), full
// and single-entry overwrites, server columns that split groups and column
// removals that make rows equal again, swap-removals, Clone and State round
// trips. State lists groups by id, with the free list in allocation order,
// so its bytes depend on how ids were allocated and never on how the
// content index hashes a row.
func sharedRowDigestStream(t *testing.T, seed uint64, steps int) string {
	t.Helper()
	rng := xrand.New(seed)
	m := 3
	var sp DelayProvider = NewSharedRowProvider(m)
	pool := make([][]float64, 5)
	draw := func() []float64 {
		r := pool[rng.IntN(len(pool))]
		if r == nil || rng.IntN(10) == 0 {
			r = make([]float64, m)
			for i := range r {
				r[i] = math.Floor(rng.Uniform(1, 300))
			}
			if rng.IntN(8) == 0 {
				r[rng.IntN(m)] = math.NaN()
			}
			pool[rng.IntN(len(pool))] = r
		}
		return r
	}
	h := sha256.New()
	fold := func() {
		b, err := json.Marshal(sp.State())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	for step := 0; step < steps; step++ {
		k := sp.NumClients()
		op := rng.IntN(16)
		switch {
		case op < 6:
			if k < 60 {
				sp.AppendClient(draw())
			}
		case op == 6 && k > 0:
			sp.SetClientDelays(rng.IntN(k), draw())
		case op == 7 && k > 0:
			d := math.Floor(rng.Uniform(1, 300))
			if rng.IntN(5) == 0 {
				d = math.NaN()
			}
			sp.SetClientServerDelay(rng.IntN(k), rng.IntN(m), d)
		case (op == 8 || op == 9) && k > 0:
			sp.SwapRemoveClient(rng.IntN(k))
		case op == 10 && m < 8:
			var col []float64
			if rng.IntN(3) > 0 {
				col = make([]float64, k)
				for j := range col {
					if rng.IntN(8) == 0 { // the rest of a group keeps its row
						col[j] = 10
					}
				}
			}
			sp.AppendServer(col)
			fill := UnmeasuredDelayMs
			if col != nil {
				fill = 0
			}
			for x, r := range pool {
				if r != nil {
					pool[x] = append(r[:m:m], fill)
				}
			}
			m++
		case op == 11 && m > 1:
			i := rng.IntN(m)
			sp.SwapRemoveServer(i)
			m--
			for x, r := range pool {
				if r != nil {
					r = append([]float64(nil), r...)
					r[i] = r[m]
					pool[x] = r[:m]
				}
			}
		case op == 12:
			sp = sp.Clone()
		case op == 13:
			b, err := json.Marshal(sp.State())
			if err != nil {
				t.Fatal(err)
			}
			var back ProviderState
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if sp, err = NewProviderFromState(&back); err != nil {
				t.Fatal(err)
			}
		}
		h.Write([]byte{byte(op), byte(m), byte(sp.NumClients())})
		fold()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSharedRowStateDigest pins the deduplicating row store's State bytes
// over fixed mutation streams to recorded SHA-256s: group ids, refcounts,
// the free list and every live row stay what the recording build produced,
// whatever the store's content hash.
func TestSharedRowStateDigest(t *testing.T) {
	want := map[uint64]string{
		1: "4bc0f9ad196942ef7209cddb83fc2da025a5fc7e69b2744b2c0634b5e4636a86",
		2: "8cebecffefb153709a7acdc8b03d4f69bfcc16d7104d756cc6443df0d67d5790",
	}
	for seed, digest := range want {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if got := sharedRowDigestStream(t, 7700+seed, 1500); got != digest {
				t.Errorf("digest %s, recorded %s", got, digest)
			}
		})
	}
}
