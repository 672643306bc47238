package repair

import (
	"errors"
	"fmt"
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

	// Every accessor resolves the live ID and agrees with the planner.
	h, err := b.Handle("erin")
	if err != nil {
		t.Fatal(err)
	}
	if c, err := b.Contact("erin"); err != nil {
		t.Fatal(err)
	} else if want, _ := pl.Contact(h); c != want {
		t.Fatalf("contact %d vs planner %d", c, want)
	}
	if d, err := b.Delay("erin"); err != nil {
		t.Fatal(err)
	} else if want, _ := pl.ClientDelay(h); d != want {
		t.Fatalf("delay %v vs planner %v", d, want)
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
	checkPlanner(t, pl)
}

func TestIDBindingUnknownClient(t *testing.T) {
	b, rng := testIDBinding(t)
	m := b.Planner().Problem().NumServers()
	for name, err := range map[string]error{
		"Handle":       second(b.Handle("ghost")),
		"Leave":        b.Leave("ghost"),
		"Move":         b.Move("ghost", 0),
		"UpdateDelays": b.UpdateDelays("ghost", randRow(rng, m)),
		"SetRT":        b.SetRT("ghost", 0.2),
		"Contact":      second(b.Contact("ghost")),
		"Delay":        secondF(b.Delay("ghost")),
		"Zone":         second(b.Zone("ghost")),
		"CopyDelays":   b.CopyDelays("ghost", make([]float64, m)),
	} {
		if !errors.Is(err, ErrUnknownClient) {
			t.Errorf("%s on unknown ID: err = %v, want ErrUnknownClient", name, err)
		}
	}
}

func mustZone(t *testing.T, b *IDBinding, id string) int {
	t.Helper()
	z, err := b.Zone(id)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func second(_ int, err error) error      { return err }
func secondF(_ float64, err error) error { return err }
