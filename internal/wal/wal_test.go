package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// appendAll writes records 1..n with payloads derived from their LSN.
func appendAll(t *testing.T, w *Writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		want := w.NextLSN()
		lsn, err := w.Append(payloadFor(want))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != want {
			t.Fatalf("append got LSN %d, want %d", lsn, want)
		}
	}
}

func payloadFor(lsn uint64) []byte { return []byte(fmt.Sprintf("event-%d", lsn)) }

// collect replays everything after `after` into a map.
func collect(t *testing.T, dir string, after uint64) (map[uint64]string, uint64) {
	t.Helper()
	got := map[uint64]string{}
	last, err := Replay(dir, after, func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, last
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 25)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, last := collect(t, dir, 0)
	if last != 25 || len(got) != 25 {
		t.Fatalf("replay: last %d, %d records", last, len(got))
	}
	for lsn := uint64(1); lsn <= 25; lsn++ {
		if got[lsn] != string(payloadFor(lsn)) {
			t.Fatalf("LSN %d payload %q", lsn, got[lsn])
		}
	}
	// Tail replay skips covered records.
	got, last = collect(t, dir, 20)
	if last != 25 || len(got) != 5 {
		t.Fatalf("tail replay: last %d, %d records", last, len(got))
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 7)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.NextLSN() != 8 {
		t.Fatalf("reopened NextLSN %d, want 8", w.NextLSN())
	}
	appendAll(t, w, 3)
	w.Close()
	got, last := collect(t, dir, 0)
	if last != 10 || len(got) != 10 {
		t.Fatalf("after reopen: last %d, %d records", last, len(got))
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	w, err := Open(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 40)
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected many segments, got %d", len(segs))
	}
	got, last := collect(t, dir, 0)
	if last != 40 || len(got) != 40 {
		t.Fatalf("rotated replay: last %d, %d records", last, len(got))
	}
	// GC everything a snapshot at LSN 30 covers.
	if err := w.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	after, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(segs) {
		t.Fatalf("truncate removed nothing: %d -> %d segments", len(segs), len(after))
	}
	if after[0] > 31 {
		t.Fatalf("truncate removed a needed segment: first remaining starts at %d", after[0])
	}
	got, last = collect(t, dir, 30)
	if last != 40 || len(got) != 10 {
		t.Fatalf("post-GC tail replay: last %d, %d records", last, len(got))
	}
	w.Close()
}

func TestOpenWithBaseStartsAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.NextLSN() != 101 {
		t.Fatalf("NextLSN %d, want 101", w.NextLSN())
	}
	appendAll(t, w, 2)
	w.Close()
	got, last := collect(t, dir, 100)
	if last != 102 || len(got) != 2 {
		t.Fatalf("replay after base: last %d, %d records", last, len(got))
	}
}

// tornVariants returns mutations of a valid segment tail that Open must
// truncate away: partial header, partial payload, corrupt final CRC,
// zero length.
func tornVariants() map[string]func(b []byte) []byte {
	return map[string]func(b []byte) []byte{
		"partial-header":  func(b []byte) []byte { return append(b, 0x05, 0x00) },
		"partial-payload": func(b []byte) []byte { return append(b, 0x05, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y') },
		"bad-final-crc": func(b []byte) []byte {
			frame := make([]byte, frameHeader+3)
			binary.LittleEndian.PutUint32(frame[0:4], 3)
			binary.LittleEndian.PutUint32(frame[4:8], 0xdeadbeef)
			copy(frame[frameHeader:], "abc")
			return append(b, frame...)
		},
		"zero-length": func(b []byte) []byte { return append(b, 0, 0, 0, 0, 1, 2, 3, 4) },
		"huge-length": func(b []byte) []byte {
			frame := make([]byte, frameHeader)
			binary.LittleEndian.PutUint32(frame[0:4], MaxRecord+1)
			binary.LittleEndian.PutUint32(frame[4:8], 1)
			return append(b, frame...)
		},
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	for name, mutate := range tornVariants() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, 5)
			w.Close()
			segs, _ := segments(dir)
			path := filepath.Join(dir, segmentName(segs[0]))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
				t.Fatal(err)
			}
			// Replay before repair: clean stop at the torn record.
			got, last := collect(t, dir, 0)
			if last != 5 || len(got) != 5 {
				t.Fatalf("replay over torn tail: last %d, %d records", last, len(got))
			}
			// Open truncates the tail and appends continue seamlessly.
			w, err = Open(dir, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if w.NextLSN() != 6 {
				t.Fatalf("NextLSN after repair %d, want 6", w.NextLSN())
			}
			appendAll(t, w, 2)
			w.Close()
			got, last = collect(t, dir, 0)
			if last != 7 || len(got) != 7 {
				t.Fatalf("replay after repair: last %d, %d records", last, len(got))
			}
		})
	}
}

func TestCorruptionBeforeFinalSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 20)
	w.Close()
	segs, _ := segments(dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Flip a payload bit in the middle segment: acked records follow the
	// damage, so recovery must refuse rather than silently drop them.
	path := filepath.Join(dir, segmentName(segs[1]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(magic)+frameHeader+2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over mid-log damage: %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, 0, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log damage: %v, want ErrCorrupt", err)
	}
}

func TestBadMagicIsFatal(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 3)
	w.Close()
	segs, _ := segments(dir)
	path := filepath.Join(dir, segmentName(segs[0]))
	b, _ := os.ReadFile(path)
	b[0] ^= 0xff
	os.WriteFile(path, b, 0o644)
	if _, err := Replay(dir, 0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay with bad magic: %v, want ErrCorrupt", err)
	}
}

func TestSnapshotRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: %v, want ErrNoSnapshot", err)
	}
	for _, lsn := range []uint64{5, 17, 42} {
		if err := WriteSnapshot(dir, lsn, []byte(fmt.Sprintf("state@%d", lsn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	lsn, payload, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 || string(payload) != "state@42" {
		t.Fatalf("latest snapshot: %d %q", lsn, payload)
	}
	if err := PruneSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	lsns, err := SnapshotLSNs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 2 || lsns[0] != 17 || lsns[1] != 42 {
		t.Fatalf("pruned snapshots: %v", lsns)
	}
}

func TestSnapshotCrashLeavesOldStateReadable(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 10, []byte("old"), nil); err != nil {
		t.Fatal(err)
	}
	crash := errors.New("crash")
	// Crash after the temp file is written but before the rename: the new
	// snapshot must be invisible and the old one intact.
	hook := func(point string) error {
		if point == "snapshot:temp" {
			return crash
		}
		return nil
	}
	if err := WriteSnapshot(dir, 20, []byte("new"), hook); !errors.Is(err, crash) {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	lsn, payload, err := LatestSnapshot(dir)
	if err != nil || lsn != 10 || string(payload) != "old" {
		t.Fatalf("after temp-crash: %d %q %v", lsn, payload, err)
	}
	// Prune clears the leftover .tmp.
	if err := PruneSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(20)+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp not pruned: %v", err)
	}
}

func TestAppendCrashPoints(t *testing.T) {
	crash := errors.New("crash")
	for _, point := range []string{"append:start", "append:torn", "append:unsynced"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, 4)
			w.opt.CrashHook = func(p string) error {
				if p == point {
					return crash
				}
				return nil
			}
			if _, err := w.Append([]byte("doomed")); !errors.Is(err, crash) {
				t.Fatalf("append: %v", err)
			}
			// The writer is fail-stopped: a record appended now would land
			// after a possibly half-written frame, be acknowledged, and then
			// be dropped with the torn tail. It must refuse without writing.
			w.opt.CrashHook = nil
			size := fileSize(t, w.f.Name())
			if _, err := w.Append([]byte("after")); !errors.Is(err, ErrFailed) || !errors.Is(err, crash) || !errors.Is(w.Err(), ErrFailed) {
				t.Fatalf("append after a failed append: %v, want the original fault under ErrFailed", err)
			}
			if got := fileSize(t, w.f.Name()); got != size {
				t.Fatalf("fail-stopped writer grew its segment: %d → %d", size, got)
			}
			w.f.Close() // simulate process death without Writer.Close bookkeeping
			// Recovery: the 4 acked records survive, the unacked one may or
			// may not (here: must not, since no crash point syncs a full frame).
			w2, err := Open(dir, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := w2.NextLSN(); got != 5 && point != "append:unsynced" {
				t.Fatalf("NextLSN after crash at %s: %d", point, got)
			}
			got, _ := collect(t, dir, 0)
			for lsn := uint64(1); lsn <= 4; lsn++ {
				if got[lsn] != string(payloadFor(lsn)) {
					t.Fatalf("acked LSN %d lost after crash at %s", lsn, point)
				}
			}
			appendAll(t, w2, 1)
			w2.Close()
		})
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestHasState(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "nope")
	if ok, err := HasState(sub); err != nil || ok {
		t.Fatalf("missing dir: %v %v", ok, err)
	}
	if ok, err := HasState(dir); err != nil || ok {
		t.Fatalf("empty dir: %v %v", ok, err)
	}
	w, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if ok, err := HasState(dir); err != nil || !ok {
		t.Fatalf("dir with segment: %v %v", ok, err)
	}
}

// FuzzWALDecode feeds arbitrary bytes to the segment scanner via a real
// file: whatever the mutator produces, scanning must neither panic nor
// mis-frame — every payload it does deliver must carry a valid CRC.
func FuzzWALDecode(f *testing.F) {
	// Corpus seeds: a valid two-record segment, assorted torn tails, junk.
	valid := func() []byte {
		var b bytes.Buffer
		b.WriteString(magic)
		for _, p := range [][]byte{[]byte(`{"op":"join","id":"c1"}`), []byte(`{"op":"leave"}`)} {
			var hdr [frameHeader]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
			binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, crcTable))
			b.Write(hdr[:])
			b.Write(p)
		}
		return b.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(magic))
	f.Add([]byte("DVEWAL99junk"))
	f.Add([]byte{})
	f.Add(append(append([]byte{}, valid...), 0xff, 0xff, 0xff, 0x7f))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		count, end, torn, err := scanSegment(path, func(payload []byte) error {
			if len(payload) == 0 || len(payload) > MaxRecord {
				t.Fatalf("delivered payload of %d bytes", len(payload))
			}
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corrupt error: %v", err)
			}
			return
		}
		if end > int64(len(data)) {
			t.Fatalf("scan end %d past file size %d", end, len(data))
		}
		if count > 0 && end <= int64(len(magic)) {
			t.Fatalf("%d records in %d bytes", count, end)
		}
		// A truncated-then-reopened segment must replay the same records.
		// (end == 0 means the magic itself was incomplete; the truncated
		// file is empty and legitimately still "torn".)
		if err := os.WriteFile(path, data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		count2, end2, torn2, err := scanSegment(path, nil)
		if err != nil {
			t.Fatalf("rescan of truncated file: %v", err)
		}
		if count2 != count || end2 != end || (torn2 && end > 0) {
			t.Fatalf("rescan diverged: %d/%d records, %d/%d end, torn %v/%v",
				count, count2, end, end2, torn, torn2)
		}
	})
}

// TestAppendDoesNotAllocate pins the writer's reusable frame buffer: once it
// has grown to the largest record, an append allocates nothing — and reusing
// it never bleeds one record's bytes into the next.
func TestAppendDoesNotAllocate(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 0, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	small, big := []byte("small"), bytes.Repeat([]byte("B"), 512)
	if _, err := w.Append(big); err != nil { // warm-up: grows the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := w.Append(small); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(big); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per small+big append pair, want 0", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, last := collect(t, dir, 0)
	if last < 3 || len(got) != int(last) {
		t.Fatalf("replayed %d records up to LSN %d", len(got), last)
	}
	for lsn := uint64(1); lsn <= last; lsn++ {
		want := big
		if lsn%2 == 0 {
			want = small
		}
		if got[lsn] != string(want) {
			t.Fatalf("LSN %d replays %d bytes, want the %d-byte record", lsn, len(got[lsn]), len(want))
		}
	}
}
