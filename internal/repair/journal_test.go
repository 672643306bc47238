package repair

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
	m, err := NewMachine(bindPlanner(t, pl), "GreZ-GreC", 0, nil)
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

// TestLoadSnapshotRefusesDamagedBlocks: a version-3 candidate whose float
// block is damaged, misframed or at odds with its document is skipped for
// the generation before it, and refused alone, naming why.
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
	snap, err := decodeSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}
	rows, servers := snap.Cluster.Clients, len(snap.Cluster.Servers)
	// document renders snap's document with the clients' rows kept in it
	// (inline) or not, and no block member.
	document := func(inline bool) []byte {
		doc := *snap
		doc.Block = nil
		doc.Cluster.Clients = slices.Clone(rows)
		if !inline {
			for j := range doc.Cluster.Clients {
				doc.Cluster.Clients[j].RTTRowMs = nil
			}
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// reframe frames document(inline) around a block of the first n
	// clients' rows.
	reframe := func(inline bool, n int) []byte {
		var block []byte
		for _, c := range rows[:n] {
			for _, v := range c.RTTRowMs {
				block = binary.LittleEndian.AppendUint64(block, math.Float64bits(v))
			}
		}
		return frameBlock(document(inline), len(block), func(b []byte) { copy(b, block) })
	}
	if !bytes.Equal(reframe(false, len(rows)), good) {
		t.Fatal("reframing the rendered snapshot changed its bytes")
	}
	doc, _, _ := bytes.Cut(good, []byte{'\n'})
	off := fmt.Sprintf(`"offset":%d`, len(doc)+1)
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
		{"one row short", fmt.Sprintf("holds %d values, the document's arrays need %d", (len(rows)-1)*servers, len(rows)*servers), reframe(false, len(rows)-1)},
		{"rows in the document too", "carries a dense float array itself", reframe(true, len(rows))},
		{"no block", "names no float block", document(false)},
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
// to the same content: rendering that one again gives the same bytes. A
// version-1–2 snapshot whose arrays disagree with its document may refuse
// to render; a version-3 one cannot. The seeds are every committed
// snapshot, each also re-rendered as version 3, and rendered test machines.
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
		v3, err := snap.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap.LSN, raw)
		f.Add(snap.LSN, v3)
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
				t.Fatalf("accepted version-3 snapshot does not render: %v", err)
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
