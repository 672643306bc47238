package dvecap

import (
	"strconv"
	"testing"
)

// TestUntracedSessionVerbsAllocateNothing: on a warm, in-memory session
// without a trace log, the verbs of a mobility tick — AddAdjacencyWeight,
// Move, an 8-member MoveBatch of known IDs, and a 4-member JoinBatch with
// the LeaveBatch that undoes it — allocate nothing: span builds no
// attributes, the event is the session's own, a join batch's rows are
// copied into session scratch and a batch is admitted through binding- and
// planner-owned scratch.
func TestUntracedSessionVerbsAllocateNothing(t *testing.T) {
	s, x := crossingSession(t, 6, 1200)
	x.tick(1, 8)
	ids, there := x.ids, x.to[0]
	back := s.ZoneIDs()[x.pairs[0][0]]
	fro, to := make([]string, len(ids)), make([]string, len(ids))
	for i := range ids {
		fro[i], to[i] = back, there
	}
	row := make([]float64, s.NumServers())
	for i := range row {
		row[i] = 20 + float64(i%7)
	}
	joins := make([]ClientJoin, 4)
	gone := make([]string, len(joins))
	for i := range joins {
		gone[i] = "joiner" + strconv.Itoa(i)
		joins[i] = ClientJoin{ID: gone[i], Spec: ClientSpec{Zone: there, BandwidthMbps: 0.05, RTTRow: row}}
	}
	for name, verb := range map[string]func() error{
		"JoinBatch+LeaveBatch": func() error {
			if err := s.JoinBatch(joins); err != nil {
				return err
			}
			return s.LeaveBatch(gone)
		},
		"AddAdjacencyWeight": func() error { return s.AddAdjacencyWeight(back, there, 0.05) },
		"Move": func() error {
			if err := s.Move(ids[0], there); err != nil {
				return err
			}
			return s.Move(ids[0], back)
		},
		"MoveBatch": func() error {
			if err := s.MoveBatch(ids, to); err != nil {
				return err
			}
			return s.MoveBatch(ids, fro)
		},
	} {
		var err error
		for i := 0; i < 8 && err == nil; i++ { // warm the rows and the scratch
			err = verb()
		}
		n := testing.AllocsPerRun(50, func() {
			if e := verb(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", name, n)
		}
	}
}

// TestJoinBatchScratch: a join batch's rows past 512 KiB — 1 700 joiners on
// 40 servers — are not kept after the call, whether the batch was refused
// midway (its last joiner names no zone) or admitted; a 4-member batch keeps
// its scratch for the next.
func TestJoinBatchScratch(t *testing.T) {
	s, x := crossingSession(t, 6, 1200)
	row := make([]float64, s.NumServers())
	for i := range row {
		row[i] = 20 + float64(i%7)
	}
	batch := func(n int, lastZone string) error {
		joins := make([]ClientJoin, n)
		for i := range joins {
			joins[i] = ClientJoin{ID: "j" + strconv.Itoa(n) + "-" + strconv.Itoa(i),
				Spec: ClientSpec{Zone: x.zones[i%len(x.zones)], BandwidthMbps: 0.05, RTTRow: row}}
		}
		if lastZone != "" {
			joins[n-1].Spec.Zone = lastZone
		}
		return s.JoinBatch(joins)
	}
	if err := batch(4, ""); err != nil || cap(s.batchRows) < 4*len(row) {
		t.Fatalf("4 joiners: %v, scratch of %d floats kept", err, cap(s.batchRows))
	}
	if err := batch(1700, "nowhere"); err == nil || s.batchRows != nil || s.batchEv.IDs != nil {
		t.Fatalf("1 700 joiners, one refused: %v, scratch of %d floats and %d IDs kept", err, cap(s.batchRows), cap(s.batchEv.IDs))
	}
	if err := batch(1700, ""); err != nil || s.batchRows != nil || s.batchEv.IDs != nil {
		t.Fatalf("1 700 joiners: %v, scratch of %d floats and %d IDs kept", err, cap(s.batchRows), cap(s.batchEv.IDs))
	}
	if got, want := s.NumClients(), 1200+4+1700; got != want {
		t.Fatalf("%d clients, want %d", got, want)
	}
}
