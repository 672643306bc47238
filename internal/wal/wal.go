// Package wal implements the durability layer of dvecap's sessions: an
// append-only, segmented write-ahead log of opaque event payloads plus
// atomically written snapshots, with the fsync discipline a crash-safe
// store needs (DESIGN.md §11).
//
// The log is a sequence of segment files wal-<firstLSN>.log, each starting
// with an 8-byte magic and holding length-prefixed, CRC32-C-framed
// records. Log sequence numbers (LSNs) are implicit: a segment's filename
// carries its first record's LSN and records number consecutively, so the
// log needs no index. Snapshots are separate files snap-<lsn>.json whose
// payload captures all state through that LSN; recovery loads the newest
// snapshot that parses and replays only the log records after it — O(tail)
// work, independent of session lifetime.
//
// An append is one write: the writer keeps the segment's last partial 4 KiB
// block in memory and rewrites it, with the new frame and zero padding to
// the next block boundary, through an O_DIRECT|O_DSYNC descriptor on
// Linux. The active segment therefore ends in zeros, and an all-zero frame
// header at a record boundary is the clean end of the log; rotation and
// Close trim a segment to its last frame.
//
// Torn final records are expected, not fatal: a crash mid-append leaves a
// half-written frame at the tail of the last segment, which Open truncates
// away. Any framing damage before the final record of the final segment is
// real corruption and fails recovery loudly (ErrCorrupt) instead of
// silently dropping acknowledged events.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"dvecap/telemetry"
)

const (
	// magic opens every segment file; a mismatch means the file is not a
	// log segment (or its head was destroyed), which is never torn-tail
	// damage and therefore fails recovery.
	magic = "DVEWAL01"
	// frameHeader is the per-record framing overhead: u32 payload length +
	// u32 CRC32-C of the payload, both little-endian.
	frameHeader = 8
	// MaxRecord bounds a single payload; longer appends are rejected and a
	// longer length prefix on disk is treated as damage.
	MaxRecord = 16 << 20
	// defaultSegmentBytes rotates segments at 4 MiB.
	defaultSegmentBytes = 4 << 20
	// scanBuffer is the read buffer of a segment scan.
	scanBuffer = 64 << 10
	// blockSize is the unit of an append's write: it rewrites the segment
	// from the last 4 KiB boundary at or before the log's end, which direct
	// I/O needs aligned in offset, length and memory.
	blockSize = 4 << 10
	// tailBytes is the tail buffer's first size and the step by which a
	// segment grows: an append that would end past the file's end writes
	// this much, its frame and then zeros, so the next appends overwrite
	// blocks that are already allocated.
	tailBytes = 64 << 10
)

// ErrCorrupt reports framing damage that is not a torn final record — a
// bad magic, a CRC mismatch or truncation before the tail of the log.
// Recovery must fail rather than resume from a silently shortened history.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrFailed marks a Writer that has fail-stopped: an append failed part-way
// (a short write, a failed fsync), so the segment may end in a half-written
// frame. A record appended after it would be acknowledged and then dropped
// with the torn tail on recovery, so the writer refuses every further
// Append, returning the original fault wrapped in ErrFailed, until the
// log is reopened (which truncates the tear).
var ErrFailed = errors.New("wal: writer failed")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Writer.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the current one reaches
	// this size (0 takes the 4 MiB default).
	SegmentBytes int64
	// NoSync opens segments without O_DIRECT and O_DSYNC and never syncs an
	// append — only for tests that measure logical behaviour, never for
	// durability.
	NoSync bool
	// CrashHook, when set, is consulted at named points of the append path
	// ("append:start", "append:torn", "append:unsynced"). Returning an
	// error simulates a crash at that point: the operation stops exactly
	// there (the "torn" point first writes half a frame, like a real
	// mid-write power cut) and the error propagates. Fault-injection
	// harness only.
	CrashHook func(point string) error
	// Telemetry, when set, registers the log's metrics there: append and
	// fsync latency histograms, appended bytes/records, and segment
	// rotations. Nil disables all instrumentation at zero cost.
	Telemetry *telemetry.Registry
	// Layout, when set, is what ReplayLayout read of this directory's
	// segments: Open takes each listed segment's scan from it instead of
	// reading the segment again. The directory must not have changed since.
	Layout Layout
}

// Layout maps a segment's first LSN to what a scan of it found — its whole
// records, the offset just past the last one and whether a torn record
// follows — so recovery reads each segment once (ReplayLayout, then Open).
type Layout map[uint64]segmentScan

type segmentScan struct {
	count int
	end   int64
	torn  bool
}

// walTele holds the writer's metric handles; zero value disabled.
type walTele struct {
	appendDur *telemetry.Histogram
	fsyncDur  *telemetry.Histogram
	bytes     *telemetry.Counter
	records   *telemetry.Counter
	rotations *telemetry.Counter
}

func newWALTele(reg *telemetry.Registry) walTele {
	if reg == nil {
		return walTele{}
	}
	return walTele{
		appendDur: reg.Histogram("dvecap_wal_append_duration_seconds",
			"Wall time of one WAL append, including its durable write.", nil),
		fsyncDur: reg.Histogram("dvecap_wal_fsync_duration_seconds",
			"Wall time of the per-append durable write alone: one O_DIRECT|O_DSYNC pwrite on Linux, a write and fsync elsewhere.", nil),
		bytes: reg.Counter("dvecap_wal_appended_bytes_total",
			"Framed bytes appended to the WAL."),
		records: reg.Counter("dvecap_wal_records_total",
			"Records appended to the WAL."),
		rotations: reg.Counter("dvecap_wal_segment_rotations_total",
			"WAL segment rotations."),
	}
}

// Writer appends records to the log. Not safe for concurrent use.
type Writer struct {
	dir     string
	opt     Options
	f       *os.File
	size    int64  // current segment's logical end, just past its last frame
	alloc   int64  // bytes of the segment known to be written; zeros past size
	nextLSN uint64 // LSN the next Append receives
	closed  bool
	failed  error // sticky append failure (wraps ErrFailed); nil while healthy
	tele    walTele
	// tail holds the segment from its last block boundary at or before
	// size: the size%blockSize bytes on disk there, then zeros. Every
	// record is framed in it; it is block-aligned in memory and grow-only,
	// so appends do not allocate.
	tail []byte
}

// alignedBuffer returns n zero bytes starting at a block boundary in
// memory, as direct I/O requires.
func alignedBuffer(n int) []byte {
	b := make([]byte, n+blockSize)
	skip := int(-uintptr(unsafe.Pointer(&b[0])) & (blockSize - 1))
	return b[skip : skip+n : skip+n]
}

// segmentName formats the segment holding records from lsn on.
func segmentName(lsn uint64) string { return fmt.Sprintf("wal-%016d.log", lsn) }

// parseSegment extracts the first LSN from a segment filename.
func parseSegment(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// segments lists the directory's segment files by ascending first LSN.
func segments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if lsn, ok := parseSegment(e.Name()); ok {
			out = append(out, lsn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// HasState reports whether dir holds any durable session state (segments
// or snapshots) — the fresh-start vs recover decision.
func HasState(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	for _, e := range ents {
		if _, ok := parseSegment(e.Name()); ok {
			return true, nil
		}
		if _, ok := parseSnapshot(e.Name()); ok {
			return true, nil
		}
	}
	return false, nil
}

// scanSegment reads every whole record of one segment file, calling fn
// with each payload. It returns the number of whole records and the byte
// offset just past the last one. A torn tail (half a frame, a length
// beyond EOF, a CRC mismatch on the final record) stops the scan cleanly
// with torn=true; damage with valid records after it cannot be detected
// within one segment, so callers treat torn segments followed by more
// segments as corruption.
func scanSegment(path string, fn func(payload []byte) error) (count int, end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	// One buffered reader per segment: a record is two small reads, its
	// header and its payload, and on the bare file each was a syscall.
	r := bufio.NewReaderSize(f, scanBuffer)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		// Too short for the magic: a segment file created but not fully
		// written before the crash.
		return 0, 0, true, nil
	}
	if string(head) != magic {
		return 0, 0, false, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	end = int64(len(magic))
	hdr := make([]byte, frameHeader)
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err == io.EOF {
				return count, end, false, nil // clean end at a record boundary
			}
			return count, end, true, nil // partial header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 && sum == 0 {
			return count, end, false, nil // zero padding: the active segment's clean end
		}
		if length == 0 || length > MaxRecord {
			return count, end, true, nil
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(r, buf); err != nil {
			return count, end, true, nil // partial payload
		}
		if crc32.Checksum(buf, crcTable) != sum {
			return count, end, true, nil
		}
		if fn != nil {
			if err := fn(buf); err != nil {
				return count, end, false, err
			}
		}
		count++
		end += frameHeader + int64(length)
	}
}

// Open prepares dir for appending: it scans the existing segments,
// truncates a torn final record off the last one, reloads that segment's
// last partial block and returns a writer positioned after the last whole
// record. A final segment that ends in zero padding is left as it is.
// base is the LSN already covered by the snapshot the caller starts from —
// when the directory has no segments at all, the first segment starts at
// base+1.
func Open(dir string, base uint64, opt Options) (*Writer, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opt: opt, tele: newWALTele(opt.Telemetry), tail: alignedBuffer(tailBytes)}
	if len(segs) == 0 {
		w.nextLSN = base + 1
		if err := w.rotate(); err != nil {
			return nil, err
		}
		return w, nil
	}
	scan := func(start uint64) (int, int64, bool, error) {
		if sc, ok := opt.Layout[start]; ok {
			return sc.count, sc.end, sc.torn, nil
		}
		return scanSegment(filepath.Join(dir, segmentName(start)), nil)
	}
	// Non-final segments must be whole — a torn record there means records
	// after the damage were acknowledged, which truncation would lose — and
	// hold every record up to the next segment's first.
	for i, start := range segs[:len(segs)-1] {
		count, _, torn, err := scan(start)
		if err != nil {
			return nil, err
		}
		if torn || start+uint64(count) != segs[i+1] {
			return nil, fmt.Errorf("%w: %s: torn record before final segment", ErrCorrupt, segmentName(start))
		}
	}
	last := segs[len(segs)-1]
	path := filepath.Join(dir, segmentName(last))
	count, end, torn, err := scan(last)
	if err != nil {
		return nil, err
	}
	if torn && end < int64(len(magic)) {
		// The crash hit before even the segment magic was complete: the
		// file holds nothing. Recreate it whole rather than appending
		// records to a header-less file.
		if err := os.Remove(path); err != nil {
			return nil, err
		}
		w.nextLSN = last
		if err := w.rotate(); err != nil {
			return nil, err
		}
		return w, nil
	}
	// The next append rewrites the last partial block: reload it, and drop
	// what follows the last frame there. The read goes through the page
	// cache the scan filled; a direct read would first write back the dirty
	// pages of a freshly copied segment.
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	off := end &^ (blockSize - 1)
	_, err = r.ReadAt(w.tail[:blockSize], off)
	r.Close()
	if err != nil && err != io.EOF {
		return nil, err
	}
	clear(w.tail[end-off:])
	if w.f, err = openTail(path, os.O_RDWR, !opt.NoSync); err != nil {
		return nil, err
	}
	w.size, w.alloc, w.nextLSN = end, end, last+uint64(count)
	if torn {
		// Recovery = truncate the torn final record; the file then ends at
		// the last whole record boundary.
		err = w.f.Truncate(end)
		if err == nil {
			err = w.f.Sync()
		}
		if err != nil {
			w.f.Close()
			return nil, err
		}
	}
	return w, nil
}

// rotate trims and closes the current segment and starts a fresh one named
// by the next LSN. The new segment's magic and first zero step are on disk
// and its directory entry durable before any record lands in it.
func (w *Writer) rotate() error {
	if w.f != nil {
		if err := w.trim(); err != nil {
			return err
		}
	}
	f, err := openTail(filepath.Join(w.dir, segmentName(w.nextLSN)), os.O_RDWR|os.O_CREATE|os.O_EXCL, !w.opt.NoSync)
	if err != nil {
		return err
	}
	clear(w.tail[:w.size%blockSize])
	w.f, w.size, w.alloc = f, 0, 0
	copy(w.tail, magic)
	if err := w.writeTail(len(magic)); err != nil {
		return err
	}
	w.size = int64(len(magic))
	if !w.opt.NoSync {
		if err := syncDir(w.dir); err != nil {
			return err
		}
	}
	w.tele.rotations.Inc()
	return nil
}

// trim cuts the segment's zero padding, so a closed segment ends at its
// last frame, then syncs and closes it.
func (w *Writer) trim() error {
	err := w.f.Truncate(w.size)
	if err == nil {
		err = w.f.Sync()
	}
	return errors.Join(err, w.f.Close())
}

// writeTail writes the tail buffer's first n bytes, rounded up to whole
// blocks, at the segment's last block boundary: one pwrite, durable when it
// returns through O_DSYNC, or followed by f.Sync where the descriptor has
// no such flag. The bytes it rewrites before the new ones are those on
// disk, so a torn write can lose only the new frame. A write that would end
// past the written part of the file writes at least tailBytes.
func (w *Writer) writeTail(n int) error {
	off := w.size &^ (blockSize - 1)
	span := (n + blockSize - 1) &^ (blockSize - 1)
	if off+int64(span) > w.alloc {
		span = max(span, tailBytes)
	}
	if _, err := w.f.WriteAt(w.tail[:span], off); err != nil {
		return err
	}
	w.alloc = max(w.alloc, off+int64(span))
	if syncAfterWrite && !w.opt.NoSync {
		return w.f.Sync()
	}
	return nil
}

// hook consults the crash-injection hook, if any.
func (w *Writer) hook(point string) error {
	if w.opt.CrashHook == nil {
		return nil
	}
	return w.opt.CrashHook(point)
}

// Append writes one record and makes it durable. The returned LSN is
// assigned only after the record's write is durable — once Append returns
// nil, the record survives any crash. A failure past validation is sticky:
// the writer fail-stops (see ErrFailed) without touching the file again.
func (w *Writer) Append(payload []byte) (uint64, error) {
	if w.closed {
		return 0, fmt.Errorf("wal: writer closed")
	}
	if w.failed != nil {
		return 0, w.failed
	}
	if len(payload) == 0 || len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: payload of %d bytes outside (0,%d]", len(payload), MaxRecord)
	}
	lsn, err := w.append(payload)
	if err != nil {
		w.failed = fmt.Errorf("%w: %w", ErrFailed, err)
		return 0, w.failed
	}
	return lsn, nil
}

func (w *Writer) append(payload []byte) (uint64, error) {
	if w.size >= w.opt.SegmentBytes {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	if err := w.hook("append:start"); err != nil {
		return 0, err
	}
	var start time.Time
	if w.tele.appendDur != nil {
		start = time.Now()
	}
	head := int(w.size % blockSize)
	n := head + frameHeader + len(payload)
	if need := (n + blockSize - 1) &^ (blockSize - 1); need > len(w.tail) {
		grown := alignedBuffer(need)
		copy(grown, w.tail[:head])
		w.tail = grown
	}
	frame := w.tail[head:n]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	if err := w.hook("append:torn"); err != nil {
		// Simulated power cut mid-write: only the frame's first half lands.
		clear(frame[len(frame)/2:])
		_ = w.writeTail(n)
		return 0, err
	}
	var syncStart time.Time
	if w.tele.fsyncDur != nil {
		syncStart = time.Now()
	}
	if err := w.writeTail(n); err != nil {
		return 0, err
	}
	if w.tele.fsyncDur != nil && !w.opt.NoSync {
		w.tele.fsyncDur.Observe(time.Since(syncStart).Seconds())
	}
	if err := w.hook("append:unsynced"); err != nil {
		return 0, err
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.size += int64(len(frame))
	// Keep the new last partial block at the buffer's front, zeros after.
	if keep := int(w.size % blockSize); n-keep > 0 {
		copy(w.tail, w.tail[n-keep:n])
		clear(w.tail[keep:n])
	}
	if w.tele.appendDur != nil {
		w.tele.appendDur.Observe(time.Since(start).Seconds())
		w.tele.bytes.Add(uint64(len(frame)))
		w.tele.records.Inc()
	}
	return lsn, nil
}

// Err returns the sticky failure of a fail-stopped writer (it wraps
// ErrFailed), nil while the writer is healthy.
func (w *Writer) Err() error { return w.failed }

// NextLSN returns the LSN the next Append will receive.
func (w *Writer) NextLSN() uint64 { return w.nextLSN }

// Close trims, syncs and closes the active segment; a fail-stopped
// writer's segment it only closes. Further Appends fail.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	if w.failed != nil {
		return w.f.Close()
	}
	return w.trim()
}

// TruncateThrough deletes whole segments every record of which is ≤ lsn —
// the log-tail GC after a durable snapshot at lsn. The active segment is
// never deleted. Deleting old segments is safe without ordering fsyncs:
// losing the deletion re-replays records the snapshot already covers,
// which replay skips by LSN.
func (w *Writer) TruncateThrough(lsn uint64) error {
	segs, err := segments(w.dir)
	if err != nil {
		return err
	}
	for i, start := range segs {
		if i == len(segs)-1 {
			break // active segment stays
		}
		if segs[i+1] <= lsn+1 {
			// The next segment starts at or before lsn+1, so this one holds
			// only records ≤ lsn.
			if err := os.Remove(filepath.Join(w.dir, segmentName(start))); err != nil {
				return err
			}
		}
	}
	return syncDir(w.dir)
}

// Replay streams every whole record with LSN > after to fn, in order, and
// returns the last LSN delivered (or `after` when none were). A torn tail
// on the FINAL segment ends the replay cleanly — Open truncates it later —
// while damage in any earlier segment returns ErrCorrupt. fn errors abort
// the replay.
func Replay(dir string, after uint64, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	return ReplayLayout(dir, after, nil, fn)
}

// ReplayLayout is Replay that also records in lay, when it is not nil, the
// scan of each segment it reads whole: the Layout a following Open takes.
func ReplayLayout(dir string, after uint64, lay Layout, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	segs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return after, nil
		}
		return after, err
	}
	last := after
	var covered []uint64
	for i, start := range segs {
		final := i == len(segs)-1
		if !final && segs[i+1] <= after+1 {
			if lay != nil {
				covered = append(covered, start)
			}
			continue // O(tail): every record of this segment predates the snapshot
		}
		lsn := start
		count, end, torn, err := scanSegment(filepath.Join(dir, segmentName(start)), func(payload []byte) error {
			cur := lsn
			lsn++
			if cur <= after {
				return nil
			}
			if cur != last+1 {
				return fmt.Errorf("%w: LSN gap: got %d after %d", ErrCorrupt, cur, last)
			}
			last = cur
			return fn(cur, payload)
		})
		if err != nil {
			return last, err
		}
		if torn && !final {
			return last, fmt.Errorf("%w: %s: torn record before final segment", ErrCorrupt, segmentName(start))
		}
		if lay != nil {
			lay[start] = segmentScan{count, end, torn}
		}
	}
	// The segments the snapshot covers are scanned last, for lay alone: on
	// Recover's reader goroutine that overlaps the apply of the records still
	// queued, and Open reads none of them. One that fails to scan is left
	// out, for Open to refuse as it would without lay.
	for _, start := range covered {
		if count, end, torn, err := scanSegment(filepath.Join(dir, segmentName(start)), nil); err == nil {
			lay[start] = segmentScan{count, end, torn}
		}
	}
	return last, nil
}

// syncDir makes directory-entry changes (creates, renames, removes)
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
