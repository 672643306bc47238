package dvecap

import "testing"

// TestUntracedSessionVerbsAllocateNothing: on a warm, in-memory session
// without a trace log, the verbs of a mobility tick — AddAdjacencyWeight,
// Move and an 8-member MoveBatch of known IDs — allocate nothing: span
// builds no attributes, the event is the session's own and a batch is
// admitted through binding- and planner-owned scratch.
func TestUntracedSessionVerbsAllocateNothing(t *testing.T) {
	s, x := crossingSession(t, 6, 1200)
	x.tick(1, 8)
	ids, there := x.ids, x.to[0]
	back := s.ZoneIDs()[x.pairs[0][0]]
	fro, to := make([]string, len(ids)), make([]string, len(ids))
	for i := range ids {
		fro[i], to[i] = back, there
	}
	for name, verb := range map[string]func() error{
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
