package repair

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dvecap/internal/wal"
	"dvecap/internal/xrand"
)

// TestLoadSnapshotFallsBackAGeneration: the newest snapshot that parses,
// is within the readable schema range and declares the LSN its file name
// carries wins; every other candidate is skipped for the generation before
// it, and a directory with no usable candidate fails loudly.
func TestLoadSnapshotFallsBackAGeneration(t *testing.T) {
	good := func(lsn uint64) string { return fmt.Sprintf(`{"version":2,"lsn":%d}`, lsn) }
	for _, tc := range []struct {
		name   string
		newest string
		want   uint64
	}{
		{"newest valid", good(9), 9},
		{"torn JSON", `{"version":2,"ls`, 5},
		{"future schema", `{"version":4,"lsn":9}`, 5},
		{"version zero", `{"lsn":9}`, 5},
		{"declares another LSN", good(8), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for lsn, payload := range map[uint64]string{5: good(5), 9: tc.newest} {
				if err := wal.WriteSnapshot(dir, lsn, []byte(payload), nil); err != nil {
					t.Fatal(err)
				}
			}
			got, err := LoadSnapshot(dir)
			if err != nil || got.LSN != tc.want {
				t.Fatalf("loaded %+v, %v; want LSN %d", got, err, tc.want)
			}
		})
	}
	dir := t.TempDir()
	if err := wal.WriteSnapshot(dir, 9, []byte(`{"version":7,"lsn":9}`), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir); err == nil || !strings.Contains(err.Error(), "version 7") {
		t.Fatalf("only a future-schema snapshot: %v, want a refusal naming the version", err)
	}
	if _, err := LoadSnapshot(t.TempDir()); err == nil {
		t.Fatal("empty directory produced a snapshot")
	}
}

// TestRecoverTracksEpochsWhileReplaying: a machine is durable from the start
// of Recover, before its log opens, so the bookkeeping follows the full
// re-solves the tail replays; the first live event after recovery journals
// one record, not a stale epoch marker ahead of it.
func TestRecoverTracksEpochsWhileReplaying(t *testing.T) {
	dir := t.TempDir()
	m := testMachine(t, false)
	if err := m.MakeDurable(JournalConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(&Event{Op: OpResolve}, nil, nil); err != nil {
		t.Fatal(err)
	}
	head := m.NextLSN() // the resolve and its epoch marker
	// m is left without Close, as a kill leaves it.
	snap, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreMachine(snap, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Recover(JournalConfig{Dir: dir}, snap.LSN); err != nil || n != 1 {
		t.Fatalf("Recover replayed %d events (%v), want 1", n, err)
	}
	if got := r.NextLSN(); got != head {
		t.Fatalf("recovered NextLSN %d, want %d", got, head)
	}
	if err := r.Commit(&Event{Op: OpLeave, ID: "seed-0"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.NextLSN(); got != head+1 {
		t.Fatalf("one live event after recovery took LSNs %d..%d, want one record", head, got-1)
	}
}

// TestFallbackGenerationKeepsItsTail: a checkpoint truncates the log only
// through the oldest generation it keeps, so with the newest snapshot torn,
// recovery falls back a generation and replays from it — across the
// segments that rotated between the two checkpoints — to the state of the
// uninterrupted machine, and the snapshot it loaded says why. Had the log
// been truncated through the newest generation, the same recovery fails on
// the gap, naming the torn snapshot too.
func TestFallbackGenerationKeepsItsTail(t *testing.T) {
	dir := t.TempDir()
	rng := xrand.New(43)
	pl, err := New(testConfig(), randProblem(rng.Split(), 200), rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(bindPlanner(t, pl), "GreZ-GreC", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MakeDurable(JournalConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	// 4 KiB segments, so the events between the checkpoints rotate several.
	if err := m.w.Close(); err != nil {
		t.Fatal(err)
	}
	if m.w, err = wal.Open(dir, 0, wal.Options{SegmentBytes: 4 << 10, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	commit := func(from, to int) {
		for x := from; x < to; x++ {
			e := &Event{Op: OpJoin, ID: fmt.Sprintf("n%04d", x), Zone: fmt.Sprintf("z%d", rng.IntN(pl.NumZones())),
				RT: rng.Uniform(0.05, 0.5), Row: randRow(rng, pl.NumServers())}
			if err := m.Commit(e, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(0, 40)
	older, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	commit(40, 200)
	newer, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	head := m.NextLSN() - 1
	want, err := m.Render(head)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.w.Close(); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, fmt.Sprintf("snap-%016d.json", newer))
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	gapped := t.TempDir()
	for name, b := range readDir(t, dir) {
		if err := os.WriteFile(filepath.Join(gapped, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	why := fmt.Sprintf("snapshot %d: ", newer)

	recover := func(dir string) (*Machine, error) {
		snap, err := LoadSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if snap.LSN != older || snap.Skipped() == nil || !strings.HasPrefix(snap.Skipped().Error(), why) {
			t.Fatalf("loaded snapshot %d skipping %v, want %d skipping %q…", snap.LSN, snap.Skipped(), older, why)
		}
		r, err := RestoreMachine(snap, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Recover(JournalConfig{Dir: dir}, snap.LSN)
		return r, err
	}
	r, err := recover(dir)
	if err != nil {
		t.Fatalf("recovering from the older generation: %v", err)
	}
	if got, err := r.Render(head); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from the uninterrupted machine's (%v)", err)
	}
	if err := r.w.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncated through the newest generation, the older one's tail has a gap.
	w, err := wal.Open(gapped, newer, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(w.TruncateThrough(newer), w.Close()); err != nil {
		t.Fatal(err)
	}
	if _, err := recover(gapped); !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), why) {
		t.Fatalf("recovering across the gap: %v, want a corrupt log naming %q", err, why)
	}
}

// TestLoadSnapshotRefusesDamagedBlocks: a version-4 candidate whose block
// is damaged, misframed or at odds with its document, or a committed
// version-3 one whose float block is, is skipped for the generation before
// it, and refused alone, naming why.
func TestLoadSnapshotRefusesDamagedBlocks(t *testing.T) {
	m := testMachine(t, false)
	render := func(lsn uint64) []byte {
		raw, err := m.Render(lsn)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	good := render(9)
	head, block, _ := bytes.Cut(good, []byte{'\n'})
	at := bytes.LastIndex(head, []byte(`,"block":`))
	document := append(bytes.Clone(head[:at]), '}')
	snap, err := decodeSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}
	// reframe frames doc around block, naming count clients.
	reframe := func(doc, block []byte, count int) []byte {
		return frameBlock(doc, len(block), count, func(b []byte) { copy(b, block) })
	}
	k := len(snap.ids)
	if !bytes.Equal(reframe(document, block, k), good) {
		t.Fatal("reframing the rendered snapshot changed its bytes")
	}
	off := fmt.Sprintf(`"offset":%d`, len(head)+1)
	v3, err := os.ReadFile("../../testdata/v3-snapshots/session-dense/data/snap-0000000000000061.json")
	if err != nil {
		t.Fatal(err)
	}
	v3head, _, _ := bytes.Cut(v3, []byte{'\n'})
	v3count := regexp.MustCompile(`"count":\d+`).Find(v3head)
	for _, tc := range []struct {
		name, why string
		raw       []byte
	}{
		{"flipped block bit", "fails its CRC32-C", func() []byte {
			raw := bytes.Clone(good)
			raw[len(raw)-3] ^= 4
			return raw
		}()},
		{"truncated block", "is not the", good[:len(good)-8]},
		{"offset past end of file", "is not the", bytes.Replace(good, []byte(off), []byte(fmt.Sprintf(`"offset":%d`, 2*len(good))), 1)},
		{"block one value short", "block ends before its columns", reframe(document, block[:len(block)-8], k)},
		{"bytes past the columns", "block holds 4 bytes past its columns", reframe(document, append(bytes.Clone(block), 0, 0, 0, 0), k)},
		{"a column in the document too", "carries a block column itself",
			reframe(bytes.Replace(document, []byte(`"client_contact":null`), []byte(`"client_contact":[]`), 1), block, k)},
		{"client objects in the document", "carries client objects itself",
			reframe(bytes.Replace(document, []byte(`"clients":[]`), []byte(`"clients":[{"id":"x"}]`), 1), block, k)},
		{"no block", "names no float block", document},
		{"no newline, a block of -1 bytes", "is not the", func() []byte {
			for off := 0; ; {
				raw := fmt.Appendf(bytes.Clone(document[:len(document)-1]), `,"block":{"offset":%d,"length":-1,"count":%d,"crc32c":0}}`, off, k)
				if off == len(raw)+1 {
					return raw
				}
				off = len(raw) + 1
			}
		}()},
		{"version 3, flipped block bit", "fails its CRC32-C", func() []byte {
			raw := bytes.Clone(v3)
			raw[len(raw)-3] ^= 4
			return raw
		}()},
		{"version 3, miscounted", "holds", func() []byte {
			miscount := bytes.Clone(v3count) // as long, so the offset stays true
			miscount[len(miscount)-1] ^= 1
			return bytes.Replace(v3, v3count, miscount, 1)
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for lsn, raw := range map[uint64][]byte{5: render(5), 9: tc.raw} {
				if err := wal.WriteSnapshot(dir, lsn, raw, nil); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := LoadSnapshot(dir); err != nil || got.LSN != 5 {
				t.Fatalf("loaded %v, %v; want the generation at LSN 5", got != nil, err)
			}
			if err := os.Remove(filepath.Join(dir, "snap-0000000000000005.json")); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSnapshot(dir); err == nil || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("alone, the damaged candidate gives %v, want a refusal saying %q", err, tc.why)
			}
		})
	}
}

// FuzzSnapshotDecode: LoadSnapshot never panics on a candidate file, and
// what it accepts re-renders (Snapshot.encode) to a snapshot that decodes
// to the same content: rendering that one again gives the same bytes. An
// accepted snapshot of this build's version always renders. The seeds are
// every committed snapshot (versions 2 and 3, session and director, dense
// and coordinate stores), each also re-rendered as version 4.
func FuzzSnapshotDecode(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/*/*/data/snap-*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed snapshots (%v)", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		snap, err := decodeSnapshot(raw)
		if err != nil {
			f.Fatal(err)
		}
		v4, err := snap.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap.LSN, raw)
		f.Add(snap.LSN, v4)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, lsn uint64, raw []byte) {
		path := filepath.Join(dir, fmt.Sprintf("snap-%016d.json", lsn))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := LoadSnapshot(dir)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err != nil {
			return
		}
		again, err := snap.encode()
		if err != nil {
			if snap.Version == SnapshotVersion {
				t.Fatalf("accepted version-%d snapshot does not render: %v", snap.Version, err)
			}
			return
		}
		back, err := decodeSnapshot(again)
		if err != nil {
			t.Fatalf("accepted snapshot re-renders to one that does not decode: %v", err)
		}
		if twice, err := back.encode(); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("accepted snapshot decodes differently once re-rendered (%v)", err)
		}
	})
}

// TestRecoveredExactStoreMatchesUninterrupted: a version-4 snapshot stores
// the exact store's own state (group ids, refcounts, free list), so a
// machine recovered from a checkpoint and its log tail holds the store the
// uninterrupted machine holds — the same State() bytes — not one regrouped
// from per-client rows. Rows come from a small pool, so clients share
// groups, detach from them and free them on both sides of the checkpoint.
func TestRecoveredExactStoreMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	rng := xrand.New(47)
	m := testMachine(t, false)
	if err := m.MakeDurable(JournalConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	pl := m.b.pl
	pool := make([][]float64, 4)
	for x := range pool {
		pool[x] = randRow(rng, pl.NumServers())
	}
	live := slices.Clone(m.b.DenseIDs())
	churn := func(events int) {
		for x := 0; x < events; x++ {
			var e *Event
			switch r := rng.IntN(4); {
			case r == 0 || len(live) < 4:
				id := fmt.Sprintf("j%04d", rng.IntN(10000))
				if slices.Contains(live, id) {
					continue
				}
				e = &Event{Op: OpJoin, ID: id, Zone: fmt.Sprintf("z%d", rng.IntN(pl.NumZones())), RT: 0.1, Row: pool[rng.IntN(len(pool))]}
				live = append(live, id)
			case r == 1:
				at := rng.IntN(len(live))
				e = &Event{Op: OpLeave, ID: live[at]}
				live = slices.Delete(live, at, at+1)
			default:
				e = &Event{Op: OpDelayRow, ID: live[rng.IntN(len(live))], Row: pool[rng.IntN(len(pool))]}
			}
			if err := m.Commit(e, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	state := func(m *Machine) string {
		raw, err := json.Marshal(m.b.pl.prob.Delays.State())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(raw))
	}
	churn(150)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(150)
	snap, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreMachine(snap, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Recover(JournalConfig{Dir: dir}, snap.LSN); err != nil {
		t.Fatal(err)
	}
	if got, want := state(r), state(m); got != want {
		t.Fatalf("recovered exact store's State digest %s, uninterrupted %s", got, want)
	}
	if st := m.b.pl.prob.Delays.State().Shared; len(st.Free) == 0 || len(st.Refs) >= len(st.Group) {
		t.Fatalf("the stream left %d free groups and %d groups for %d clients: no sharing or freeing to restore", len(st.Free), len(st.Refs), len(st.Group))
	}
}
