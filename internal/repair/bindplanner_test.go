package repair

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// requireGoroutines waits for the goroutine count to come back to n: a
// joined helper may still be returning after it signalled.
func requireGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), n)
		}
	}
}

// testSnapshot renders testMachine's state and decodes it.
func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	raw, err := testMachine(t, false).Render(0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRestoreMachineRefusesRepeatedClientID: the name table built beside
// the planner still refuses a snapshot whose ID column names one client
// twice, and its helper goroutine has exited.
func TestRestoreMachineRefusesRepeatedClientID(t *testing.T) {
	snap := testSnapshot(t)
	if _, err := RestoreMachine(snap, testConfig()); err != nil {
		t.Fatal(err)
	}
	snap = testSnapshot(t)
	snap.ids[5] = snap.ids[2]
	before := runtime.NumGoroutine()
	_, err := RestoreMachine(snap, testConfig())
	if !errors.Is(err, ErrDuplicateClient) || err.Error() != `duplicate client "`+snap.ids[2]+`"` {
		t.Fatalf("err = %v, want ErrDuplicateClient naming %q", err, snap.ids[2])
	}
	requireGoroutines(t, before)
}

// TestBindPlannerReturnsThePlannerError: an error the planner's build
// raises while the helper is still building the name table is the one
// returned, ahead of the table's, and the helper has exited.
func TestBindPlannerReturnsThePlannerError(t *testing.T) {
	boom := errors.New("boom")
	ids := Names("c", 200_000)
	ids[len(ids)-1] = ids[0] // the table fails too, later
	before := runtime.NumGoroutine()
	if _, err := BindPlanner(ids, nil, nil, func() (*Planner, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Under -race, a helper still reading ids would race with this write.
	ids[1] = "c0"
	requireGoroutines(t, before)

	snap := testSnapshot(t)
	snap.Planner.ZoneServer = snap.Planner.ZoneServer[1:]
	if _, err := RestoreMachine(snap, testConfig()); err == nil {
		t.Fatal("a stored assignment missing a zone was adopted")
	}
	requireGoroutines(t, before)
}
