package repair

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"dvecap/internal/xrand"
)

// testMachine wraps testIDBinding's population in a machine whose servers
// are s0.. and zones z0..; dir makes it a director-side machine.
func testMachine(t *testing.T, dir bool) *Machine {
	t.Helper()
	b, _ := testIDBinding(t)
	pl := b.Planner()
	if err := b.NameTopology(Names("s", pl.NumServers()), Names("z", pl.NumZones())); err != nil {
		t.Fatal(err)
	}
	var ds *DirectorState
	if dir {
		ds = &DirectorState{ServerNodes: make([]int, pl.NumServers()), ClientNodes: make([]int, b.Len())}
	}
	m, err := NewMachine(b, "GreZ-GreC", ds)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckIsTheAdmissionRule: check admits a well-formed event of every op
// and refuses each malformed one — on references, shapes, ranges and
// self-edges — with the sentinel where one applies, changing nothing.
func TestCheckIsTheAdmissionRule(t *testing.T) {
	m := testMachine(t, false)
	ns := m.b.pl.NumServers()
	row := func(fill float64) []float64 {
		r := make([]float64, ns)
		for i := range r {
			r[i] = fill
		}
		return r
	}
	nan, inf := math.NaN(), math.Inf(1)
	good := []*Event{
		{Op: OpJoin, ID: "n0", Zone: "z0", RT: 0.5, Row: row(10)},
		{Op: OpJoinBatch, IDs: []string{"n0", "n1"}, Zones: []string{"z0", "z1"}, RTs: []float64{0.5, 0.5}, Rows: [][]float64{row(1), row(0)}},
		{Op: OpLeave, ID: "seed-0"},
		{Op: OpLeaveBatch, IDs: []string{"seed-0", "seed-1"}},
		{Op: OpMove, ID: "seed-0", Zone: "z1"},
		{Op: OpMove, ID: "seed-0", Zone: "z1", RT: 0.4},
		{Op: OpMoveBatch, IDs: []string{"seed-0", "seed-1"}, Zones: []string{"z1", "z0"}},
		{Op: OpDelayRow, ID: "seed-0", Row: row(0)},
		{Op: OpServerDelays, Server: "s1", RTTs: map[string]float64{"seed-0": 12}},
		{Op: OpSetBandwidth, ID: "seed-0", RT: 0.4},
		{Op: OpSetZoneBW, Zone: "z0", RT: 0.4, Refresh: []ZoneRT{{Zone: "z1", RT: 0.2}}},
		{Op: OpAddServer, Server: "sx", Capacity: 30, Row: row(5), ClientRTTs: map[string]float64{"seed-0": 7}},
		{Op: OpRemoveServer, Server: "s0"},
		{Op: OpDrainServer, Server: "s0"},
		{Op: OpUncordon, Server: "s0"},
		{Op: OpAddZone, Zone: "zx", Host: "s1"},
		{Op: OpRetireZone, Zone: "z0"},
		{Op: OpSetAdjacency, Zone: "z0", Zone2: "z1", Weight: 2},
		{Op: OpSetAdjacency, Zone: "z0", Zone2: "z1"},
		{Op: OpAddAdjacency, Zone: "z0", Zone2: "z1", Weight: 0.5},
		{Op: OpResolve},
	}
	for _, e := range good {
		if err := m.check(e); err != nil {
			t.Errorf("%s %+v refused: %v", e.Op, e, err)
		}
	}
	bad := []struct {
		name string
		e    *Event
		is   error
	}{
		{"join: taken ID", &Event{Op: OpJoin, ID: "seed-0", Zone: "z0", RT: 0.5, Row: row(1)}, ErrDuplicateClient},
		{"join: dot ID", &Event{Op: OpJoin, ID: "..", Zone: "z0", RT: 0.5, Row: row(1)}, nil},
		{"join: unknown zone", &Event{Op: OpJoin, ID: "n0", Zone: "zq", RT: 0.5, Row: row(1)}, ErrUnknownZone},
		{"join: bandwidth NaN", &Event{Op: OpJoin, ID: "n0", Zone: "z0", RT: nan, Row: row(1)}, nil},
		{"join: short row", &Event{Op: OpJoin, ID: "n0", Zone: "z0", RT: 0.5, Row: row(1)[1:]}, nil},
		{"join: +Inf RTT", &Event{Op: OpJoin, ID: "n0", Zone: "z0", RT: 0.5, Row: row(inf)}, nil},
		{"join batch: second row short", &Event{Op: OpJoinBatch, IDs: []string{"n0", "n1"}, Zones: []string{"z0", "z0"}, RTs: []float64{1, 1}, Rows: [][]float64{row(1), row(1)[1:]}}, nil},
		{"join batch: repeated ID", &Event{Op: OpJoinBatch, IDs: []string{"n0", "n0"}, Zones: []string{"z0", "z0"}, RTs: []float64{1, 1}, Rows: [][]float64{row(1), row(1)}}, ErrDuplicateClient},
		{"join batch: lengths", &Event{Op: OpJoinBatch, IDs: []string{"n0", "n1"}, Zones: []string{"z0"}, RTs: []float64{1, 1}, Rows: [][]float64{row(1), row(1)}}, nil},
		{"leave: unknown client", &Event{Op: OpLeave, ID: "ghost"}, ErrUnknownClient},
		{"leave batch: repeated ID", &Event{Op: OpLeaveBatch, IDs: []string{"seed-0", "seed-0"}}, ErrDuplicateClient},
		{"move: unknown zone", &Event{Op: OpMove, ID: "seed-0", Zone: "zq"}, ErrUnknownZone},
		{"move: bandwidth -1", &Event{Op: OpMove, ID: "seed-0", Zone: "z0", RT: -1}, nil},
		{"move batch: unknown zone", &Event{Op: OpMoveBatch, IDs: []string{"seed-0", "seed-1"}, Zones: []string{"z0", "zq"}}, ErrUnknownZone},
		{"move batch: unknown client", &Event{Op: OpMoveBatch, IDs: []string{"seed-0", "ghost"}, Zones: []string{"z0", "z1"}}, ErrUnknownClient},
		{"move batch: lengths", &Event{Op: OpMoveBatch, IDs: []string{"seed-0", "seed-1"}, Zones: []string{"z0"}}, nil},
		{"delay row: NaN", &Event{Op: OpDelayRow, ID: "seed-0", Row: row(nan)}, nil},
		{"server delays: unknown server", &Event{Op: OpServerDelays, Server: "sq", RTTs: map[string]float64{"seed-0": 1}}, ErrUnknownServer},
		{"server delays: unknown client", &Event{Op: OpServerDelays, Server: "s0", RTTs: map[string]float64{"ghost": 1}}, ErrUnknownClient},
		{"server delays: +Inf", &Event{Op: OpServerDelays, Server: "s0", RTTs: map[string]float64{"seed-0": inf}}, nil},
		{"set bandwidth: 0", &Event{Op: OpSetBandwidth, ID: "seed-0"}, nil},
		{"zone bandwidth: +Inf", &Event{Op: OpSetZoneBW, Zone: "z0", RT: inf}, nil},
		{"refresh: unknown zone", &Event{Op: OpLeave, ID: "seed-0", Refresh: []ZoneRT{{Zone: "zq", RT: 1}}}, ErrUnknownZone},
		{"refresh: bandwidth 0", &Event{Op: OpLeave, ID: "seed-0", Refresh: []ZoneRT{{Zone: "z0"}}}, nil},
		{"add server: empty ID", &Event{Op: OpAddServer, Capacity: 30, Row: row(5)}, nil},
		{"add server: taken ID", &Event{Op: OpAddServer, Server: "s0", Capacity: 30, Row: row(5)}, ErrDuplicateServer},
		{"add server: capacity 0", &Event{Op: OpAddServer, Server: "sx", Row: row(5)}, nil},
		{"add server: short row", &Event{Op: OpAddServer, Server: "sx", Capacity: 30, Row: row(5)[1:]}, nil},
		{"add server: client RTT NaN", &Event{Op: OpAddServer, Server: "sx", Capacity: 30, Row: row(5), ClientRTTs: map[string]float64{"seed-0": nan}}, nil},
		{"add server: unknown client", &Event{Op: OpAddServer, Server: "sx", Capacity: 30, Row: row(5), ClientRTTs: map[string]float64{"ghost": 1}}, ErrUnknownClient},
		{"drain: unknown server", &Event{Op: OpDrainServer, Server: "sq"}, ErrUnknownServer},
		{"add zone: empty ID", &Event{Op: OpAddZone}, nil},
		{"add zone: taken ID", &Event{Op: OpAddZone, Zone: "z0"}, ErrDuplicateZone},
		{"add zone: unknown host", &Event{Op: OpAddZone, Zone: "zx", Host: "sq"}, ErrUnknownServer},
		{"retire zone: unknown zone", &Event{Op: OpRetireZone, Zone: "zq"}, ErrUnknownZone},
		{"set edge: unknown zone", &Event{Op: OpSetAdjacency, Zone: "z0", Zone2: "zq", Weight: 1}, ErrUnknownZone},
		{"set edge: self-edge", &Event{Op: OpSetAdjacency, Zone: "z1", Zone2: "z1", Weight: 1}, nil},
		{"set edge: NaN", &Event{Op: OpSetAdjacency, Zone: "z0", Zone2: "z1", Weight: nan}, nil},
		{"add edge: 0", &Event{Op: OpAddAdjacency, Zone: "z0", Zone2: "z1"}, nil},
	}
	before, err := m.Render(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range bad {
		err := m.check(tc.e)
		if err == nil || (tc.is != nil && !errors.Is(err, tc.is)) {
			t.Errorf("%s: check = %v, want a refusal (sentinel %v)", tc.name, err, tc.is)
		}
	}
	after, err := m.Render(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("Check changed the machine's state")
	}
}

// TestCheckAdmitsCollidingAutoJoin: the director's auto-ID join whose ID a
// caller already took is journaled bare so the sequence number replays —
// check lets it through, apply rejects it and still advances the sequence.
// The same ID chosen by a caller is refused.
func TestCheckAdmitsCollidingAutoJoin(t *testing.T) {
	m := testMachine(t, true)
	bare := &Event{Op: OpJoin, ID: "seed-0", Zone: "z0", Auto: true}
	if err := m.check(bare); err != nil {
		t.Fatalf("check refused the bare auto join: %v", err)
	}
	if err := m.apply(bare); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("apply of the bare auto join = %v, want ErrDuplicateClient", err)
	}
	if m.Seq() != 1 {
		t.Fatalf("Seq = %d after a rejected auto join, want 1", m.Seq())
	}
	taken := &Event{Op: OpJoin, ID: "seed-0", Zone: "z0", RT: 0.5, Row: make([]float64, m.b.pl.NumServers())}
	if err := m.check(taken); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("check of a caller's taken ID = %v, want ErrDuplicateClient", err)
	}
}

// TestCheckSingleEventsAllocateNothing pins the per-event cost check adds to
// the hot single-client verbs: no allocation.
func TestCheckSingleEventsAllocateNothing(t *testing.T) {
	m := testMachine(t, false)
	row := make([]float64, m.b.pl.NumServers())
	for _, e := range []*Event{
		{Op: OpJoin, ID: "n0", Zone: "z0", RT: 0.5, Row: row},
		{Op: OpMove, ID: "seed-0", Zone: "z1", RT: 0.5, Refresh: []ZoneRT{{Zone: "z1", RT: 0.5}}},
		{Op: OpDelayRow, ID: "seed-0", Row: row},
		{Op: OpAddAdjacency, Zone: "z0", Zone2: "z1", Weight: 1},
	} {
		if n := testing.AllocsPerRun(100, func() { _ = m.check(e) }); n != 0 {
			t.Errorf("check(%s) allocates %v times, want 0", e.Op, n)
		}
	}
}

// TestAuditIsReadOnly runs one churn stream, re-solves included, twice —
// the second time with a Machine.Audit after every event — and requires the
// same snapshot bytes at the end.
func TestAuditIsReadOnly(t *testing.T) {
	render := func(audited bool) []byte {
		m := testMachine(t, false)
		d := &churnDriver{rng: xrand.New(77), live: m.b.DenseIDs()}
		for e := 1; e <= 300; e++ {
			d.run(t, m.b, 1)
			if e%50 == 25 {
				if err := m.apply(&Event{Op: OpResolve}); err != nil {
					t.Fatal(err)
				}
			}
			if audited {
				if err := m.Audit(); err != nil {
					t.Fatalf("event %d: %v", e, err)
				}
			}
		}
		out, err := m.Render(1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if plain, audited := render(false), render(true); !bytes.Equal(plain, audited) {
		t.Fatalf("auditing after every event changed the snapshot:\n%s\nvs\n%s", plain, audited)
	}
}
