package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
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
	for name, damage := range map[string]func(b []byte){
		// A flipped payload bit: acked records follow the damage, so
		// recovery must refuse rather than silently drop them.
		"crc": func(b []byte) { b[len(magic)+frameHeader+2] ^= 0x40 },
		// Zeros from the second record on read as a clean end, so the
		// segment holds fewer records than the next one's name says.
		"zeroed tail": func(b []byte) {
			clear(b[len(magic)+frameHeader+int(binary.LittleEndian.Uint32(b[len(magic):])):])
		},
	} {
		t.Run(name, func(t *testing.T) {
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
			path := filepath.Join(dir, segmentName(segs[1]))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damage(b)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Replay(dir, 0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay over mid-log damage: %v, want ErrCorrupt", err)
			}
			if _, err := Open(dir, 0, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open over mid-log damage: %v, want ErrCorrupt", err)
			}
		})
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
	if _, err := PruneSnapshots(dir, 2); err != nil {
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
	if _, err := PruneSnapshots(dir, 2); err != nil {
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

// crash abandons w as a killed process does: its descriptor closes, and
// nothing is trimmed or synced.
func crash(t *testing.T, w *Writer) {
	t.Helper()
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopen opens dir again and requires the writer to resume at next.
func reopen(t *testing.T, dir string, opt Options, next uint64) *Writer {
	t.Helper()
	w, err := Open(dir, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if w.NextLSN() != next {
		t.Fatalf("reopened at LSN %d, want %d", w.NextLSN(), next)
	}
	return w
}

// requireLog requires dir's log to hold exactly the appendAll records
// 1..last.
func requireLog(t *testing.T, dir string, last uint64) {
	t.Helper()
	got, head := collect(t, dir, 0)
	if head != last || len(got) != int(last) {
		t.Fatalf("log holds %d records up to LSN %d, want 1..%d", len(got), head, last)
	}
	for lsn := uint64(1); lsn <= last; lsn++ {
		if got[lsn] != string(payloadFor(lsn)) {
			t.Fatalf("LSN %d replays %q", lsn, got[lsn])
		}
	}
}

// dirFiles reads every file of a flat directory, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
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

// TestTornSpanWriteLosesOnlyTheVictim: an append rewrites its segment from
// the last block boundary, and a power cut may land any subset of the
// span's 512-byte sectors. Whichever are lost — the victim frame's header
// sector, the prefix sectors before it, which hold acknowledged records, or
// the suffix sectors after it — every acknowledged record survives, the
// victim is dropped, appending resumes at the log's end, and a second
// recovery reads the same log.
func TestTornSpanWriteLosesOnlyTheVictim(t *testing.T) {
	const sector = 512
	for _, tc := range []struct {
		name string
		lost func(sector, header int) bool
	}{
		{"header", func(s, h int) bool { return s == h }},
		{"suffix", func(s, h int) bool { return s > h }},
		{"prefix and suffix", func(s, h int) bool { return s != h }},
		{"header and suffix", func(s, h int) bool { return s >= h }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Past 3000 bytes the victim's header sits mid-block, behind five
			// prefix sectors, and its frame crosses into the next block.
			for w.size < 3000 {
				appendAll(t, w, 1)
			}
			path, off, at, victim := w.f.Name(), int(w.size&^(blockSize-1)), int(w.size), w.NextLSN()
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(bytes.Repeat([]byte("v"), 2000)); err != nil {
				t.Fatal(err)
			}
			crash(t, w)
			torn, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 2*blockSize/sector; s++ {
				if lo := off + s*sector; tc.lost(s, (at-off)/sector) {
					copy(torn[lo:lo+sector], before[lo:lo+sector])
				}
			}
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			w = reopen(t, dir, Options{}, victim)
			requireLog(t, dir, victim-1)
			appendAll(t, w, 3)
			crash(t, w)
			w = reopen(t, dir, Options{}, victim+3)
			requireLog(t, dir, victim+2)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestZeroPaddedSegmentReopensUnchanged: the zeros after the last frame of
// an active segment are its clean end. Reopening it after a crash changes
// no byte and no size in the directory, and the next frame lands at the
// log's end, behind the reloaded tail block.
func TestZeroPaddedSegmentReopensUnchanged(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 50)
	path, end := w.f.Name(), w.size
	crash(t, w)
	before := dirFiles(t, dir)
	if n := int64(len(before[filepath.Base(path)])); n <= end {
		t.Fatalf("active segment of %d bytes ends at its last frame, %d: no padding to reopen", n, end)
	}
	w = reopen(t, dir, Options{}, 51)
	if !reflect.DeepEqual(dirFiles(t, dir), before) {
		t.Fatal("reopening a zero-padded segment changed the directory")
	}
	appendAll(t, w, 1)
	crash(t, w)
	count, next, torn, err := scanSegment(path, nil)
	if err != nil || torn || count != 51 || next != end+frameHeader+int64(len(payloadFor(51))) {
		t.Fatalf("after one more append: %d records ending at %d (torn %v, %v), want 51 ending just past %d",
			count, next, torn, err, end)
	}
	requireLog(t, dir, 51)
}

// TestFramesAcrossBlocksUpToMaxRecord appends frames that end exactly on a
// block boundary, cross one or several, outgrow the tail buffer and reach
// MaxRecord, reopening the log after each as a crash would: every record
// replays intact.
func TestFramesAcrossBlocksUpToMaxRecord(t *testing.T) {
	dir := t.TempDir()
	sizes := []int{blockSize - len(magic) - frameHeader, 1, blockSize, 3*blockSize + 17, tailBytes + 1, 5, MaxRecord, 2}
	payload := func(lsn uint64) []byte { return bytes.Repeat([]byte{byte('a' + lsn)}, sizes[lsn-1]) }
	w, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= uint64(len(sizes)); lsn++ {
		if _, err := w.Append(payload(lsn)); err != nil {
			t.Fatal(err)
		}
		crash(t, w)
		w = reopen(t, dir, Options{}, lsn+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, last := collect(t, dir, 0)
	if last != uint64(len(sizes)) || len(got) != len(sizes) {
		t.Fatalf("replayed %d records up to LSN %d, want %d", len(got), last, len(sizes))
	}
	for lsn, p := range got {
		if p != string(payload(lsn)) {
			t.Fatalf("LSN %d replays %d bytes, want its %d", lsn, len(p), sizes[lsn-1])
		}
	}
}

// TestRotationAndCloseTrimSegments: a rotated segment and a closed one end
// at their last frame, as segments did before the zero padding.
func TestRotationAndCloseTrimSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 0, Options{SegmentBytes: blockSize + 100})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 600)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want several segments, have %v (%v)", segs, err)
	}
	for _, start := range segs {
		path := filepath.Join(dir, segmentName(start))
		_, end, torn, err := scanSegment(path, nil)
		if err != nil || torn {
			t.Fatalf("%s: torn %v, %v", path, torn, err)
		}
		if size := fileSize(t, path); size != end {
			t.Fatalf("%s: %d bytes, last frame ends at %d", segmentName(start), size, end)
		}
	}
	requireLog(t, dir, 600)
}

// BenchmarkAppend times durable appends of 320-byte records, the size of a
// churn_durable journal record, into a fresh directory: ns/op is the mean,
// p50-us and p90-us the latency quantiles.
func BenchmarkAppend(b *testing.B) {
	w, err := Open(b.TempDir(), 0, Options{})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("r"), 320)
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		t0 := time.Now()
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-us")
	b.ReportMetric(float64(lat[len(lat)*9/10].Nanoseconds())/1e3, "p90-us")
}

// TestOpenTakesReplaysLayout: on a rotated log, a log replayed from past its
// first segments, a torn log and a zero-padded one, the layout ReplayLayout
// hands over equals a fresh scan of every segment, and Open with it leaves
// the writer and, after more appends, the directory as Open without it.
func TestOpenTakesReplaysLayout(t *testing.T) {
	type logCase struct {
		name  string
		after uint64
		make  func(t *testing.T, dir string)
	}
	rotated := func(t *testing.T, dir string) {
		w, err := Open(dir, 0, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, w, 40)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []logCase{
		{"rotated", 0, rotated},
		{"rotated-tail", 25, rotated},
		{"zero-padded", 0, func(t *testing.T, dir string) {
			w, err := Open(dir, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, 50)
			crash(t, w)
		}},
	}
	for name, mutate := range tornVariants() {
		cases = append(cases, logCase{"torn-" + name, 0, func(t *testing.T, dir string) {
			rotated(t, dir)
			segs, _ := segments(dir)
			path := filepath.Join(dir, segmentName(segs[len(segs)-1]))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, twin := t.TempDir(), t.TempDir()
			tc.make(t, dir)
			for name, b := range dirFiles(t, dir) {
				if err := os.WriteFile(filepath.Join(twin, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			lay := Layout{}
			if _, err := ReplayLayout(dir, tc.after, lay, func(uint64, []byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			segs, _ := segments(dir)
			for _, start := range segs {
				sc, listed := lay[start]
				count, end, torn, err := scanSegment(filepath.Join(dir, segmentName(start)), nil)
				if !listed || err != nil || sc != (segmentScan{count, end, torn}) {
					t.Fatalf("segment %d: layout %+v (listed %v), fresh scan %d records to %d, torn %v (%v)", start, sc, listed, count, end, torn, err)
				}
			}
			w, err := Open(dir, 0, Options{Layout: lay})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Open(twin, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if w.nextLSN != fresh.nextLSN || w.size != fresh.size || w.alloc != fresh.alloc || !bytes.Equal(w.tail, fresh.tail) {
				t.Fatalf("writer at LSN %d, size %d, alloc %d; without the layout %d, %d, %d",
					w.nextLSN, w.size, w.alloc, fresh.nextLSN, fresh.size, fresh.alloc)
			}
			if !reflect.DeepEqual(dirFiles(t, dir), dirFiles(t, twin)) {
				t.Fatal("Open with the layout left another directory than Open without it")
			}
			appendAll(t, w, 3)
			appendAll(t, fresh, 3)
			crash(t, w)
			crash(t, fresh)
			if !reflect.DeepEqual(dirFiles(t, dir), dirFiles(t, twin)) {
				t.Fatal("the log opened with the layout differs from the one opened without it")
			}
		})
	}
}

// TestOpenRefusesACoveredSegmentLeftOutOfTheLayout: a segment the snapshot
// covers whose magic is gone does not stop the replay after it, is left out
// of the layout, and Open refuses it as it does without one.
func TestOpenRefusesACoveredSegmentLeftOutOfTheLayout(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 40)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segments(dir)
	path := filepath.Join(dir, segmentName(segs[0]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(b, "NOTAWAL!")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	lay := Layout{}
	if _, err := ReplayLayout(dir, 25, lay, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, listed := lay[segs[0]]; listed || len(lay) != len(segs)-1 {
		t.Fatalf("layout lists %d of %d segments, the damaged one %v", len(lay), len(segs), listed)
	}
	_, withLayout := Open(dir, 0, Options{Layout: lay})
	_, without := Open(dir, 0, Options{})
	if !errors.Is(withLayout, ErrCorrupt) || withLayout.Error() != without.Error() {
		t.Fatalf("Open with the layout: %v; without: %v", withLayout, without)
	}
}
