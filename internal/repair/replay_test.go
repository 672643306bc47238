package repair

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"dvecap/internal/wal"
	"dvecap/internal/xrand"
)

// replayFixture writes a data directory the way a durable machine leaves
// it: the baseline snapshot of a machine over a random problem, then a log
// tail of events joins, spread over many small segments. bad maps a tail
// position to a payload written there instead of the join.
func replayFixture(t *testing.T, events int, bad map[int][]byte) string {
	t.Helper()
	dir := t.TempDir()
	rng := xrand.New(41)
	pl, err := New(testConfig(), randProblem(rng.Split(), events), rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(bindPlanner(t, pl), "GreZ-GreC", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.Render(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(dir, 0, raw, nil); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(dir, 0, wal.Options{SegmentBytes: 4 << 10, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < events; x++ {
		payload, ok := bad[x]
		if !ok {
			e := &Event{Op: OpJoin, ID: fmt.Sprintf("n%04d", x), Zone: fmt.Sprintf("z%d", rng.IntN(pl.NumZones())),
				RT: rng.Uniform(0.1, 0.5), Row: randRow(rng, pl.NumServers())}
			if payload, err = e.Encode(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// readDir reads every file of a flat data directory, by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// replayWith recovers the machine stored in dir and replays its tail
// through Recover's pipeline, calling apply after the machine applied each
// event, then opens the log as Recover does; it returns the pipeline's
// error and the IDs of the events apply saw.
func replayWith(t *testing.T, dir string, apply func(n int, e *Event) error) ([]string, error) {
	t.Helper()
	snap, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RestoreMachine(snap, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	m.attach(JournalConfig{Dir: dir})
	m.base, m.replaying = snap.LSN, true
	_, err = m.replayLog(func(e *Event) error {
		if err := m.Apply(e); err != nil {
			return err
		}
		seen = append(seen, e.ID)
		return apply(len(seen), e)
	})
	if err == nil {
		if err := m.openLog(); err != nil {
			t.Fatal(err)
		}
		if err := m.w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return seen, err
}

// waitGoroutines fails t unless the goroutine count falls back to base: a
// goroutine that has finished its function may take a moment to be reaped.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Replay returned, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// joinIDs names the first n joins of a fixture.
func joinIDs(n int) []string {
	out := make([]string, n)
	for x := range out {
		out[x] = fmt.Sprintf("n%04d", x)
	}
	return out
}

// TestReplayPipelineStopsWhereSequentialReplayDid: Recover's replay decodes
// on one goroutine and applies on another, and on every failure it returns
// the error a sequential replay returned, naming the same LSN, after
// applying exactly the records before it; the reader has exited by then,
// and the data directory is untouched.
func TestReplayPipelineStopsWhereSequentialReplayDid(t *testing.T) {
	// More records than the queue holds, so an early apply error leaves the
	// reader blocked on a full queue.
	const events = 3 * replayQueue
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		bad   map[int][]byte
		apply func(n int, e *Event) error
		// damage corrupts the directory; it returns the error Replay must
		// return and how many joins it applies first.
		damage func(t *testing.T, dir string) (string, int)
	}{
		{name: "apply error", apply: func(n int, e *Event) error {
			if n == 10 {
				return boom
			}
			return nil
		}, damage: func(*testing.T, string) (string, int) { return "journal: replaying LSN 10: boom", 10 }},
		{name: "undecodable record", bad: map[int][]byte{700: []byte(`{"op":`)},
			damage: func(*testing.T, string) (string, int) {
				return "journal: LSN 701: repair: decode event: unexpected end of JSON input", 700
			}},
		{name: "diverged epoch", bad: map[int][]byte{500: []byte(`{"op":"epoch","full_solves":99}`)},
			damage: func(*testing.T, string) (string, int) {
				return "journal: replaying LSN 501: replay diverged: 1 full solves at epoch marker expecting 99", 500
			}},
		{name: "CRC damage before the final segment", damage: crcDamage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := replayFixture(t, events, tc.bad)
			want, applied := tc.damage(t, dir)
			before := readDir(t, dir)
			apply := tc.apply
			if apply == nil {
				apply = func(int, *Event) error { return nil }
			}
			base := runtime.NumGoroutine()
			seen, err := replayWith(t, dir, apply)
			if err == nil || err.Error() != want {
				t.Fatalf("Replay: %v, want %q", err, want)
			}
			if tc.apply != nil && !errors.Is(err, boom) {
				t.Fatalf("Replay: %v does not wrap the apply error", err)
			}
			if !reflect.DeepEqual(seen, joinIDs(applied)) {
				t.Fatalf("applied %d events before failing, want exactly the %d before the damage", len(seen), applied)
			}
			waitGoroutines(t, base)
			if !reflect.DeepEqual(readDir(t, dir), before) {
				t.Fatal("a failed Replay changed the data directory")
			}
		})
	}
}

// crcDamage flips a payload byte of the third record of a segment in the
// middle of the log: a torn record before the final segment.
func crcDamage(t *testing.T, dir string) (string, int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(names) < 4 {
		t.Fatalf("want a log of several segments, have %v (%v)", names, err)
	}
	sort.Strings(names)
	path := names[len(names)/2]
	var first int
	if _, err := fmt.Sscanf(filepath.Base(path), "wal-%d.log", &first); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len("DVEWAL01")
	for r := 0; r < 2; r++ {
		off += 8 + int(binary.LittleEndian.Uint32(b[off:]))
	}
	b[off+8+5] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// LSN first+2 is damaged; LSNs 1..first+1 (joins 0..first) apply.
	return fmt.Sprintf("%v: %s: torn record before final segment", wal.ErrCorrupt, filepath.Base(path)), first + 1
}

// TestReplayWritesNothing pins what lets the log reader run beside the
// applier without a lock: while the tail replays — the interpreter and the
// journal's bookkeeping included — no byte of the data directory changes.
func TestReplayWritesNothing(t *testing.T) {
	const events = 600
	dir := replayFixture(t, events, nil)
	before := readDir(t, dir)
	seen, err := replayWith(t, dir, func(n int, _ *Event) error {
		if n%50 == 0 && !reflect.DeepEqual(readDir(t, dir), before) {
			return fmt.Errorf("data directory changed after %d events", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != events {
		t.Fatalf("replayed %d events, want %d", len(seen), events)
	}
	if !reflect.DeepEqual(readDir(t, dir), before) {
		t.Fatal("replaying a whole tail and reopening the log changed the data directory")
	}
}
