package repair

import (
	"reflect"
	"testing"
)

// TestRepriceIsTheMembershipRule: a membership change refreshes the zone it
// leaves to its shrunk population — none when that empties it — then the
// zone it enters to its grown one, and prices the joiner or mover at its
// destination's grown population.
func TestRepriceIsTheMembershipRule(t *testing.T) {
	m := testMachine(t, false)
	b := m.Binding()
	price := func(pop int) float64 { return float64(pop) }
	pop := func(z int) float64 { return float64(b.ZonePop(z)) }
	in := func(z int) string {
		for _, id := range b.DenseIDs() {
			if zz, _ := b.ZoneOf(id); zz == z {
				return id
			}
		}
		t.Fatalf("zone %d is empty", z)
		return ""
	}
	cases := []struct {
		name     string
		e        *Event
		from, to int
		want     *Event
	}{
		{"join", &Event{Op: OpJoin}, -1, 0,
			&Event{Op: OpJoin, RT: pop(0) + 1, Refresh: []ZoneRT{{"z0", pop(0) + 1}}}},
		{"leave", &Event{Op: OpLeave}, 1, -1,
			&Event{Op: OpLeave, Refresh: []ZoneRT{{"z1", pop(1) - 1}}}},
		{"move", &Event{Op: OpMove}, 2, 0,
			&Event{Op: OpMove, RT: pop(0) + 1, Refresh: []ZoneRT{{"z2", pop(2) - 1}, {"z0", pop(0) + 1}}}},
	}
	for _, c := range cases {
		b.Reprice(c.e, price, c.from, c.to)
		if !reflect.DeepEqual(c.e, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, c.e, c.want)
		}
	}

	// Empty zone 3 down to its last client; that client's leave re-prices
	// nothing.
	for b.ZonePop(3) > 1 {
		if err := m.Commit(&Event{Op: OpMove, ID: in(3), Zone: "z0"}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	e := &Event{Op: OpLeave, ID: in(3)}
	if b.Reprice(e, price, 3, -1); e.Refresh != nil {
		t.Fatalf("leaving an emptied zone refreshes %+v", e.Refresh)
	}
}

// TestRepriceSingleEventsAllocateNothing: with room for two refreshes, a
// single join, leave or move is priced without an allocation.
func TestRepriceSingleEventsAllocateNothing(t *testing.T) {
	b := testMachine(t, false).Binding()
	price := func(pop int) float64 { return float64(pop) }
	var buf [2]ZoneRT
	for _, c := range []struct {
		op       EventOp
		from, to int
	}{{OpJoin, -1, 0}, {OpLeave, 1, -1}, {OpMove, 1, 0}} {
		e := &Event{Op: c.op}
		if n := testing.AllocsPerRun(100, func() {
			e.Refresh = buf[:0]
			b.Reprice(e, price, c.from, c.to)
		}); n != 0 {
			t.Errorf("Reprice(%s) allocates %v times, want 0", c.op, n)
		}
	}
}
