package director

// The director's lock discipline (DESIGN.md §11), proven rather than timed:
// a write is parked INSIDE the journal — mid-fsync, then mid-snapshot — and
// every read path must still answer, while a second writer must still queue.
// At a commit where readers share a lock with the fsync these tests do not
// get slower, they deadlock against parkTimeout.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dvecap/internal/repair"
	"dvecap/internal/wal"
	"dvecap/telemetry"
)

// parkTimeout bounds every step that must not wait for the parked write.
const parkTimeout = 5 * time.Second

// parkHook returns a crash hook that blocks the first time the journal
// reaches point — closing parked — until release is called.
func parkHook(point string) (hook func(string) error, parked <-chan struct{}, release func()) {
	p, r := make(chan struct{}), make(chan struct{})
	var park, free sync.Once
	hook = func(at string) error {
		if at == point {
			park.Do(func() {
				close(p)
				<-r
			})
		}
		return nil
	}
	return hook, p, func() { free.Do(func() { close(r) }) }
}

// within runs fn off the test goroutine and reports its error; it fails the
// test when fn has not returned after parkTimeout.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	case <-time.After(parkTimeout):
		t.Fatalf("%s is blocked behind the parked write", what)
	}
}

// durableTestDirector opens a durable director on a fresh directory with
// clients "a" and "b" registered.
func durableTestDirector(t *testing.T, snapshotEvery int, reg *telemetry.Registry) (*Director, Config) {
	t.Helper()
	cfg := durDirConfig(durDelays(t), 1)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = snapshotEvery
	cfg.Telemetry = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"a", "b"} {
		if _, err := d.Join(id, i+1, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return d, cfg
}

// readsProceed runs every read path — the Go surface and one HTTP lookup —
// against a director whose writer is parked, and checks what they see: the
// population is clients, x is registered or not as wantX says.
func readsProceed(t *testing.T, d *Director, clients int, wantX bool) {
	t.Helper()
	population := func(what string, got int) error {
		if got != clients {
			return fmt.Errorf("%s shows %d clients, want %d", what, got, clients)
		}
		return nil
	}
	within(t, "Lookup(a)", func() error {
		_, err := d.Lookup("a")
		return err
	})
	within(t, "Lookup(x)", func() error {
		_, err := d.Lookup("x")
		if wantX == (err == nil) && (err == nil || errors.Is(err, ErrUnknownClient)) {
			return nil
		}
		return fmt.Errorf("%v, want registered=%v", err, wantX)
	})
	within(t, "Stats", func() error { return population("Stats", d.Stats().Clients) })
	within(t, "Snapshot", func() error { return population("Snapshot", len(d.Snapshot())) })
	within(t, "Servers", func() error { d.Servers(); return nil })
	within(t, "Zones", func() error { d.Zones(); return nil })
	within(t, "ProblemSnapshot", func() error {
		return population("ProblemSnapshot", d.ProblemSnapshot().NumClients())
	})
	h := Handler(d)
	within(t, "GET /v1/clients/a", func() error {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/clients/a", nil))
		if w.Code != http.StatusOK {
			return fmt.Errorf("HTTP %d, want 200", w.Code)
		}
		return nil
	})
}

// stillQueued asserts the second writer has neither finished nor could have
// started: the sequencer is held by the parked write.
func stillQueued(t *testing.T, d *Director, done <-chan error) {
	t.Helper()
	if d.wmu.TryLock() {
		d.wmu.Unlock()
		t.Fatal("the write sequencer is free while a write is parked inside the journal")
	}
	select {
	case err := <-done:
		t.Fatalf("the second writer overtook the parked write (err = %v)", err)
	default:
	}
}

// await returns what a writer goroutine reported, or fails after parkTimeout.
func await(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(parkTimeout):
		t.Fatalf("%s never completed after the parked write was released", what)
	}
}

// journalOps decodes the ops (and client IDs) of every record in the log.
func journalOps(t *testing.T, dir string) []string {
	t.Helper()
	var ops []string
	if _, err := wal.Replay(dir, 0, func(_ uint64, payload []byte) error {
		e, err := repair.DecodeEvent(payload)
		if err != nil {
			return err
		}
		ops = append(ops, string(e.Op)+" "+e.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestReadsProceedWhileJournalSyncs parks Join("x") between the journal's
// write and its fsync. Reads must answer, showing the PRE-write state — an
// event is never visible before its append has returned; a second mutator
// must queue; and once released both are acknowledged, in call order, in
// the journal.
func TestReadsProceedWhileJournalSyncs(t *testing.T) {
	d, cfg := durableTestDirector(t, 0, nil)
	hook, parked, release := parkHook("append:unsynced")
	defer release()
	d.SetCrashHook(hook)

	joined := make(chan error, 1)
	go func() {
		_, err := d.Join("x", 3, 3)
		joined <- err
	}()
	select {
	case <-parked:
	case <-time.After(parkTimeout):
		t.Fatal("Join never reached the journal")
	}
	left := make(chan error, 1)
	go func() { left <- d.Leave("b") }()

	readsProceed(t, d, 2, false)
	stillQueued(t, d, left)

	release()
	await(t, "the parked Join", joined)
	await(t, "the queued Leave", left)
	if _, err := d.Lookup("x"); err != nil {
		t.Fatalf("Lookup(x) after the join was acknowledged: %v", err)
	}
	if _, err := d.Lookup("b"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("Lookup(b) after the leave was acknowledged: %v", err)
	}
	ops := journalOps(t, cfg.DataDir)
	want := []string{string(repair.OpJoin) + " x", string(repair.OpLeave) + " b"}
	if n := len(ops); n < 2 || ops[n-2] != want[0] || ops[n-1] != want[1] {
		t.Fatalf("journal ends %v, want %v in call order", ops, want)
	}
}

// TestReadsProceedWhileCheckpointWrites parks the auto-checkpoint that
// Join("x") triggers at the snapshot's temp-file write: x is applied (its
// append returned), so reads must answer with it; writers must queue; and
// the state recovered from that snapshot plus the tail equals a control
// director that was never durable.
func TestReadsProceedWhileCheckpointWrites(t *testing.T) {
	d, cfg := durableTestDirector(t, 3, nil)
	control, err := New(durDirConfig(cfg.Delays, 1))
	if err != nil {
		t.Fatal(err)
	}
	hook, parked, release := parkHook("snapshot:temp")
	defer release()
	d.SetCrashHook(hook)

	joined := make(chan error, 1)
	go func() {
		_, err := d.Join("x", 3, 3) // third applied event: checkpoint due
		joined <- err
	}()
	select {
	case <-parked:
	case <-time.After(parkTimeout):
		t.Fatal("the auto-checkpoint never reached the snapshot writer")
	}
	moved := make(chan error, 1)
	go func() {
		_, err := d.Move("a", 5)
		moved <- err
	}()

	readsProceed(t, d, 3, true)
	stillQueued(t, d, moved)

	release()
	await(t, "the Join that checkpointed", joined)
	await(t, "the queued Move", moved)
	if err := d.Leave("b"); err != nil {
		t.Fatal(err)
	}

	// The same five events, never journaled.
	for i, id := range []string{"a", "b", "x"} {
		if _, err := control.Join(id, i+1, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := control.Move("a", 5); err != nil {
		t.Fatal(err)
	}
	if err := control.Leave("b"); err != nil {
		t.Fatal(err)
	}
	// Kill (no Close, no final checkpoint) and recover: the snapshot that was
	// rendered while readers ran, plus the two-event tail.
	recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer recovered.Close()
	auditDirector(t, recovered)
	if got, want := dirStateJSON(t, recovered), dirStateJSON(t, control); got != want {
		t.Fatalf("recovered state diverges from the control:\n got %s\nwant %s", got, want)
	}
}

// TestWriteStageSeries: with telemetry on, every journaled mutation leaves
// exactly one observation in the journal and in the apply stage — apply being
// the only stretch of a write that can block a reader — and every checkpoint
// one in the checkpoint stage. Counts, not timings. Replay counts nothing.
func TestWriteStageSeries(t *testing.T) {
	stageCount := func(reg *telemetry.Registry, stage string) uint64 {
		return reg.Histogram("dvecap_director_write_stage_duration_seconds", "", nil, "stage", stage).Count()
	}
	reg := telemetry.NewRegistry()
	d, cfg := durableTestDirector(t, 4, reg) // two joins so far
	mutations := []func() error{
		func() error { _, err := d.Join("", 3, 3); return err },
		func() error { _, err := d.Move("a", 5); return err },
		func() error { _, err := d.UpdateDelays("a", []float64{40, 41, 42, 43}); return err },
		func() error { _, err := d.AddServer(7, 60); return err },
		func() error { _, err := d.DrainServer(Index(4)); return err },
		func() error { _, err := d.UncordonServer(ID("s4")); return err },
		func() error { _, err := d.AddZone(); return err },
		func() error { _, err := d.SetAdjacency(Index(0), Index(1), 2); return err },
		func() error { _, err := d.AddAdjacencyWeight(ID("z0"), ID("z1"), 1); return err },
		func() error { _, err := d.Reassign(); return err },
		func() error { return d.RetireZone(ID("z8")) },
		func() error { return d.Leave("b") },
	}
	for i, m := range mutations {
		if err := m(); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	journaled := uint64(2 + len(mutations))
	// Rejected while resolving: nothing journaled, nothing applied.
	if err := d.Leave("nobody"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("Leave(nobody): %v", err)
	}
	if err := d.RemoveServer(Index(99)); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("RemoveServer(99): %v", err)
	}
	// Journaled, then rejected by the apply: both stages ran.
	if err := d.RetireZone(Index(3)); !errors.Is(err, ErrZoneNotEmpty) {
		t.Fatalf("RetireZone of a populated zone: %v", err)
	}
	journaled++
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"journal", "apply"} {
		if got := stageCount(reg, stage); got != journaled {
			t.Errorf("stage %q counts %d observations for %d journaled mutations", stage, got, journaled)
		}
	}
	snaps := reg.Counter("dvecap_snapshots_total", "").Value()
	if got := stageCount(reg, "checkpoint"); got != snaps || got < 2 {
		t.Errorf("stage \"checkpoint\" counts %d observations for %d checkpoints (want >= 2: auto and explicit)", got, snaps)
	}

	// A recovered director counts live traffic only, not the replayed tail.
	if _, err := d.Join("tail", 2, 2); err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = telemetry.NewRegistry()
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer r.Close()
	auditDirector(t, r)
	if j, a := stageCount(cfg.Telemetry, "journal"), stageCount(cfg.Telemetry, "apply"); j != 0 || a != 0 {
		t.Fatalf("replay left %d journal / %d apply observations, want none", j, a)
	}
	if _, err := r.Move("tail", 4); err != nil {
		t.Fatal(err)
	}
	if j, a := stageCount(cfg.Telemetry, "journal"), stageCount(cfg.Telemetry, "apply"); j != 1 || a != 1 {
		t.Fatalf("one live mutation left %d journal / %d apply observations, want 1 / 1", j, a)
	}

	// Without a data directory only the apply stage exists.
	mem := telemetry.NewRegistry()
	cfg.DataDir, cfg.Telemetry = "", mem
	nd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Join("", 1, 1); err != nil {
		t.Fatal(err)
	}
	if j, a := stageCount(mem, "journal"), stageCount(mem, "apply"); j != 0 || a != 1 {
		t.Fatalf("non-durable join left %d journal / %d apply observations, want 0 / 1", j, a)
	}
}

// TestProblemSnapshotDuringCoordCheckpoints: under the coordinate delay
// model a join with a full measured row defers its coordinate fit, and an
// auto-checkpoint's render fits it under wmu alone while readers carry on.
// GET /v1/problem's two readers run throughout full-row joins that cross
// several checkpoints; under -race a reader that touched a coordinate being
// fitted is a reported race. Afterwards the director equals a control that
// never checkpointed, whose fits all waited for the final render.
func TestProblemSnapshotDuringCoordCheckpoints(t *testing.T) {
	cfg := durDirConfig(durDelays(t), 1)
	cfg.DelayModel = "coord"
	control, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DataDir, cfg.SnapshotEvery = t.TempDir(), 3
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	stop, read := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
			if p := d.ProblemSnapshot(); p.Delays != nil || len(p.CS) != p.NumClients() {
				read <- fmt.Errorf("problem snapshot: provider %v, %d rows for %d clients", p.Delays != nil, len(p.CS), p.NumClients())
				return
			}
			for _, c := range d.ClusterSpec().Clients {
				if len(c.RTTRowMs) != len(cfg.ServerNodes) {
					read <- fmt.Errorf("cluster spec: client %s has %d delays", c.ID, len(c.RTTRowMs))
					return
				}
			}
		}
	}()
	joined := func() error {
		for i := 0; i < 30; i++ {
			id, node, zone := fmt.Sprintf("j%02d", i), (7*i)%40, i%8
			if _, err := d.Join(id, node, zone); err != nil {
				return err
			}
			if _, err := control.Join(id, node, zone); err != nil {
				return err
			}
		}
		return nil
	}()
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if joined != nil {
		t.Fatal(joined)
	}
	if got, want := dirStateJSON(t, d), dirStateJSON(t, control); got != want {
		t.Fatalf("checkpointed director diverges from the control:\n got %s\nwant %s", got, want)
	}
	a, err := d.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := control.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("checkpointed director renders other bytes than the control")
	}
}
