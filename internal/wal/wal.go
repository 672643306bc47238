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
// Torn final records are expected, not fatal: a crash mid-append leaves a
// half-written frame at the tail of the last segment, which Open truncates
// away. Any framing damage before the final record of the final segment is
// real corruption and fails recovery loudly (ErrCorrupt) instead of
// silently dropping acknowledged events.
package wal

import (
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
	// NoSync skips the per-append fsync — only for tests that measure
	// logical behaviour, never for durability.
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
			"Wall time of one WAL append, including the durability fsync.", nil),
		fsyncDur: reg.Histogram("dvecap_wal_fsync_duration_seconds",
			"Wall time of the per-append fsync alone.", nil),
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
	size    int64  // current segment size
	nextLSN uint64 // LSN the next Append receives
	closed  bool
	failed  error // sticky append failure (wraps ErrFailed); nil while healthy
	tele    walTele
	// frame is the grow-only buffer every record is framed in: the writer is
	// single-owner and a frame is dead once written, so appends do not
	// allocate.
	frame []byte
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
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(f, head); err != nil {
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
		if _, err := io.ReadFull(f, hdr); err != nil {
			if err == io.EOF {
				return count, end, false, nil // clean end at a record boundary
			}
			return count, end, true, nil // partial header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxRecord {
			return count, end, true, nil
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(f, buf); err != nil {
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
// truncates a torn final record off the last one, and returns a writer
// positioned after the last whole record. base is the LSN already covered
// by the snapshot the caller starts from — when the directory has no
// segments at all, the first segment starts at base+1.
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
	w := &Writer{dir: dir, opt: opt, tele: newWALTele(opt.Telemetry)}
	if len(segs) == 0 {
		w.nextLSN = base + 1
		if err := w.rotate(); err != nil {
			return nil, err
		}
		return w, nil
	}
	// Non-final segments must be whole — a torn record there means records
	// after the damage were acknowledged, which truncation would lose.
	for _, start := range segs[:len(segs)-1] {
		_, _, torn, err := scanSegment(filepath.Join(dir, segmentName(start)), nil)
		if err != nil {
			return nil, err
		}
		if torn {
			return nil, fmt.Errorf("%w: %s: torn record before final segment", ErrCorrupt, segmentName(start))
		}
	}
	last := segs[len(segs)-1]
	path := filepath.Join(dir, segmentName(last))
	count, end, torn, err := scanSegment(path, nil)
	if err != nil {
		return nil, err
	}
	if torn {
		if end < int64(len(magic)) {
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
		// Recovery = truncate the torn final record; the file then ends at
		// the last whole record boundary.
		if err := os.Truncate(path, end); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if torn {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	w.f = f
	w.size = end
	w.nextLSN = last + uint64(count)
	return w, nil
}

// rotate closes the current segment and starts a fresh one named by the
// next LSN. The new segment is synced (magic on disk) and the directory
// entry made durable before any record lands in it.
func (w *Writer) rotate() error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
	}
	path := filepath.Join(w.dir, segmentName(w.nextLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return err
	}
	if !w.opt.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f = f
	w.size = int64(len(magic))
	w.tele.rotations.Inc()
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
// assigned only after the record is synced — once Append returns nil, the
// record survives any crash. A failure past validation is sticky: the
// writer fail-stops (see ErrFailed) without touching the file again.
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
	n := frameHeader + len(payload)
	if cap(w.frame) < n {
		w.frame = make([]byte, n)
	}
	frame := w.frame[:n]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	if err := w.hook("append:torn"); err != nil {
		// Simulated power cut mid-write: half a frame reaches the file.
		_, _ = w.f.Write(frame[:len(frame)/2])
		_ = w.f.Sync()
		return 0, err
	}
	if _, err := w.f.Write(frame); err != nil {
		return 0, err
	}
	if err := w.hook("append:unsynced"); err != nil {
		return 0, err
	}
	if !w.opt.NoSync {
		var syncStart time.Time
		if w.tele.fsyncDur != nil {
			syncStart = time.Now()
		}
		if err := w.f.Sync(); err != nil {
			return 0, err
		}
		if w.tele.fsyncDur != nil {
			w.tele.fsyncDur.Observe(time.Since(syncStart).Seconds())
		}
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.size += int64(len(frame))
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

// Sync flushes the current segment.
func (w *Writer) Sync() error {
	if w.f == nil {
		return nil
	}
	return w.f.Sync()
}

// Close syncs and closes the active segment. Further Appends fail.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
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
	segs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return after, nil
		}
		return after, err
	}
	last := after
	for i, start := range segs {
		final := i == len(segs)-1
		if !final && segs[i+1] <= after+1 {
			continue // O(tail): every record of this segment predates the snapshot
		}
		lsn := start
		_, _, torn, err := scanSegment(filepath.Join(dir, segmentName(start)), func(payload []byte) error {
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
