package repair

import (
	"reflect"
	"testing"
)

// TestRepriceIsTheMembershipRule: a membership change refreshes every zone it
// leaves at another population to that zone's final population — none when
// that empties it, in first-touch order — and prices joiners and movers at
// their destination's final population, on single events and batches alike.
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
		from, to []int
		want     *Event
	}{
		{"join", &Event{Op: OpJoin}, nil, []int{0},
			&Event{Op: OpJoin, RT: pop(0) + 1, Refresh: []ZoneRT{{"z0", pop(0) + 1}}}},
		{"leave", &Event{Op: OpLeave}, []int{1}, nil,
			&Event{Op: OpLeave, Refresh: []ZoneRT{{"z1", pop(1) - 1}}}},
		{"move", &Event{Op: OpMove}, []int{2}, []int{0},
			&Event{Op: OpMove, RT: pop(0) + 1, Refresh: []ZoneRT{{"z2", pop(2) - 1}, {"z0", pop(0) + 1}}}},
		{"join batch", &Event{Op: OpJoinBatch}, nil, []int{0, 1, 0},
			&Event{Op: OpJoinBatch, RTs: []float64{pop(0) + 2, pop(1) + 1, pop(0) + 2},
				Refresh: []ZoneRT{{"z0", pop(0) + 2}, {"z1", pop(1) + 1}}}},
		{"swap and stay", &Event{Op: OpMoveBatch}, []int{0, 1, 2}, []int{1, 0, 2},
			&Event{Op: OpMoveBatch, RTs: []float64{pop(1), pop(0), pop(2)}}},
		{"leave batch", &Event{Op: OpLeaveBatch}, []int{2, 1, 2}, nil,
			&Event{Op: OpLeaveBatch, Refresh: []ZoneRT{{"z2", pop(2) - 2}, {"z1", pop(1) - 1}}}},
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
		if err := m.Exec(&Event{Op: OpMove, ID: in(3), Zone: "z0"}); err != nil {
			t.Fatal(err)
		}
	}
	e := &Event{Op: OpLeave, ID: in(3)}
	if b.Reprice(e, price, []int{3}, nil); e.Refresh != nil {
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
		from, to []int
	}{{OpJoin, nil, []int{0}}, {OpLeave, []int{1}, nil}, {OpMove, []int{1}, []int{0}}} {
		e := &Event{Op: c.op}
		if n := testing.AllocsPerRun(100, func() {
			e.Refresh = buf[:0]
			b.Reprice(e, price, c.from, c.to)
		}); n != 0 {
			t.Errorf("Reprice(%s) allocates %v times, want 0", c.op, n)
		}
	}
}
