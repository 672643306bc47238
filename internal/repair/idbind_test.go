package repair

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"dvecap/internal/xrand"
)

func testIDBinding(t *testing.T) (*IDBinding, *xrand.RNG) {
	t.Helper()
	rng := xrand.New(404)
	p := randProblem(rng, 20)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, p.NumClients())
	for j := range ids {
		ids[j] = fmt.Sprintf("seed-%d", j)
	}
	b, err := NewIDBinding(pl, ids)
	if err != nil {
		t.Fatal(err)
	}
	return b, rng
}

func TestIDBindingValidation(t *testing.T) {
	rng := xrand.New(405)
	p := randProblem(rng, 0)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIDBinding(pl, nil); err == nil {
		t.Fatal("nil ids accepted for a populated planner")
	}
	dup := make([]string, p.NumClients())
	for j := range dup {
		dup[j] = "same"
	}
	if _, err := NewIDBinding(pl, dup); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("duplicate seed ids: err = %v, want ErrDuplicateClient", err)
	}
}

func TestIDBindingLifecycle(t *testing.T) {
	b, rng := testIDBinding(t)
	pl := b.Planner()
	m := pl.Problem().NumServers()
	n := pl.Problem().NumZones
	k0 := b.Len()

	// Join under a fresh ID, then under a taken one.
	if err := b.Join("erin", rng.IntN(n), 0.2, randRow(rng, m)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != k0+1 || pl.NumClients() != k0+1 {
		t.Fatalf("population %d/%d after join, want %d", b.Len(), pl.NumClients(), k0+1)
	}
	if err := b.Join("erin", 0, 0.2, randRow(rng, m)); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("duplicate join: err = %v, want ErrDuplicateClient", err)
	}

	// The joiner takes the last dense index.
	if j, err := b.Index("erin"); err != nil || j != k0 {
		t.Fatalf("Index(erin) = %d, %v, want %d", j, err, k0)
	}

	// Move, delay refresh, RT update, partial-read round trip.
	if err := b.Move("erin", (mustZone(t, b, "erin")+1)%n); err != nil {
		t.Fatal(err)
	}
	row := randRow(rng, m)
	if err := b.UpdateDelays("erin", row); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, m)
	if err := b.CopyDelays("erin", got); err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if got[i] != row[i] {
			t.Fatalf("CopyDelays[%d] = %v, want %v", i, got[i], row[i])
		}
	}
	if err := b.CopyDelays("erin", make([]float64, m+1)); err == nil {
		t.Fatal("oversized delay buffer accepted")
	}
	if err := b.SetRT("erin", 0.3); err != nil {
		t.Fatal(err)
	}

	// Leave frees the ID for reuse; the listing stays consistent.
	if err := b.Leave("erin"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != k0 || pl.NumClients() != k0 {
		t.Fatalf("population %d/%d after leave, want %d", b.Len(), pl.NumClients(), k0)
	}
	for _, id := range b.DenseIDs() {
		if id == "erin" {
			t.Fatal("departed ID still listed")
		}
	}
	if err := b.Join("erin", rng.IntN(n), 0.2, randRow(rng, m)); err != nil {
		t.Fatalf("ID reuse after leave: %v", err)
	}
	audit(t, pl)
}

func TestIDBindingUnknownClient(t *testing.T) {
	b, rng := testIDBinding(t)
	m := b.Planner().Problem().NumServers()
	k := b.Len()
	for _, v := range []struct {
		name string
		call func() error
	}{
		{"Index", func() error { return second(b.Index("ghost")) }},
		{"Leave", func() error { return b.Leave("ghost") }},
		{"Move", func() error { return b.Move("ghost", 0) }},
		{"UpdateDelays", func() error { return b.UpdateDelays("ghost", randRow(rng, m)) }},
		{"SetRT", func() error { return b.SetRT("ghost", 0.2) }},
		{"CopyDelays", func() error { return b.CopyDelays("ghost", make([]float64, m)) }},
	} {
		t.Run(v.name, func(t *testing.T) {
			if err := v.call(); !errors.Is(err, ErrUnknownClient) {
				t.Errorf("err = %v, want ErrUnknownClient", err)
			}
			if b.Len() != k || b.Planner().NumClients() != k {
				t.Fatalf("population %d/%d after a refused call, want %d", b.Len(), b.Planner().NumClients(), k)
			}
		})
	}
}

func mustZone(t *testing.T, b *IDBinding, id string) int {
	t.Helper()
	j, err := b.Index(id)
	if err != nil {
		t.Fatal(err)
	}
	return b.Planner().Problem().ClientZones[j]
}

func second(_ int, err error) error { return err }

// TestLeaveBatchFollowsSwapRemove: a LeaveBatch names clients by their
// indices at the call and removes them in order, so a member an earlier
// removal moved (the tail client) still leaves. The binding's dense order
// afterwards equals a plain-slice swap-remove of the same IDs, and each
// name still sits on the client it was joined with (tagged by bandwidth),
// for every batch shape below.
func TestLeaveBatchFollowsSwapRemove(t *testing.T) {
	b, rng := testIDBinding(t)
	pl := b.Planner()
	rt := map[string]float64{}
	for j, id := range b.DenseIDs() {
		rt[id] = 0.1 + 1e-5*float64(j)
		if err := b.SetRT(id, rt[id]); err != nil {
			t.Fatal(err)
		}
	}
	// Each shape picks a batch from the current dense order.
	for _, shape := range []struct {
		name  string
		batch func(ids []string) []string
	}{
		// The tail client leaves after a member whose removal moves it.
		{"tail after its mover", func(ids []string) []string {
			return []string{ids[rng.IntN(len(ids)-1)], ids[len(ids)-1]}
		}},
		// The tail leaves first, so nobody moves until the second removal.
		{"tail first", func(ids []string) []string {
			return []string{ids[len(ids)-1], ids[rng.IntN(len(ids)-1)]}
		}},
		// The last three in ascending order: the first removal moves the
		// tail onto it, the second pops, the third finds the moved client.
		{"tail block ascending", func(ids []string) []string {
			return slices.Clone(ids[len(ids)-3:])
		}},
		// The tail after its mover, and a few random others in random order.
		{"mixed", func(ids []string) []string {
			batch := []string{ids[rng.IntN(len(ids)-1)], ids[len(ids)-1]}
			for _, x := range rng.SampleWithout(len(ids), 3) {
				if id := ids[x]; id != batch[0] && id != batch[1] {
					batch = append(batch, id)
				}
			}
			return batch
		}},
		// The whole population, in random order.
		{"everyone", func(ids []string) []string {
			batch := make([]string, len(ids))
			for x, i := range rng.Perm(len(ids)) {
				batch[x] = ids[i]
			}
			return batch
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				ids := b.DenseIDs()
				batch := shape.batch(ids)
				want := slices.Clone(ids)
				for _, id := range batch {
					i := slices.Index(want, id)
					want[i] = want[len(want)-1]
					want = want[:len(want)-1]
				}
				if err := b.LeaveBatch(batch); err != nil {
					t.Fatal(err)
				}
				if got := b.DenseIDs(); !slices.Equal(got, want) {
					t.Fatalf("trial %d: DenseIDs after LeaveBatch(%v)\n got %v\nwant %v", trial, batch, got, want)
				}
				for j, id := range want {
					if got := pl.Problem().ClientRT[j]; got != rt[id] {
						t.Fatalf("trial %d: index %d named %q holds the client of RT %v, want %v", trial, j, id, got, rt[id])
					}
				}
				for range batch {
					id := fmt.Sprintf("new-%d-%d", trial, rng.IntN(1<<30))
					rt[id] = 0.2 + 1e-5*float64(len(rt))
					if err := b.Join(id, rng.IntN(pl.NumZones()), rt[id], randRow(rng, pl.NumServers())); err != nil {
						t.Fatal(err)
					}
				}
			}
			audit(t, pl)
		})
	}
}
