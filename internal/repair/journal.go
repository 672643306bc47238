package repair

// The journal: the durable half of the assignment state machine (Machine,
// machine.go), whichever front end drives it (DESIGN.md §11). Every event is
// encoded and appended (synced) BEFORE it is applied, so an event whose
// apply the caller saw acknowledged is on disk; snapshots bound replay; and
// recovery re-applies the log tail through the SAME interpreter live traffic
// uses, so a process killed mid-churn resumes bit-identical to one that was
// never interrupted.
//
// Its state is the machine's journal fields: the log writer, the checkpoint
// cadence, the solver-epoch tripwire, the closed fence, the checkpoint and
// recovery series and the crash-injection hook. A machine with no log
// config is not durable: Commit only checks and applies on it, and
// Checkpoint and Close are no-ops. The director makes every journal call
// under its write sequencer — never under the lock its readers take, so the
// fsync in append and the snapshot write in Checkpoint do not stall reads.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/wal"
	"dvecap/telemetry"
)

// keepSnapshots is how many generations a checkpoint retains: the one it
// just wrote plus one predecessor, so a snapshot that turns out unreadable
// (torn by a crash-during-rename bug, bitrot) still leaves a recovery point
// with its log tail intact.
const keepSnapshots = 2

// ErrJournalFailed marks every error the journal returns once an append has
// failed: the log may end in a half-written frame, so acknowledging anything
// after it would lose the write on recovery. The surface is fail-stopped —
// reads keep working, mutations and checkpoints return the original fault
// wrapped in this sentinel — until the process restarts and recovers.
var ErrJournalFailed = wal.ErrFailed

// JournalConfig is what a durable front end hands the machine's journal
// (MakeDurable, Recover).
type JournalConfig struct {
	// Dir holds the log segments and snapshots.
	Dir string
	// SnapshotEvery makes Commit checkpoint every this many applied events
	// (0 = only explicit checkpoints).
	SnapshotEvery int
	// Telemetry receives the WAL, checkpoint and recovery series; nil
	// disables them.
	Telemetry *telemetry.Registry
	// ErrClosed is the surface's own sentinel for a mutation after Close.
	ErrClosed error
}

// attach gives the machine its log config and the checkpoint series.
func (m *Machine) attach(cfg JournalConfig) {
	reg := cfg.Telemetry
	m.cfg = cfg
	m.snapDur = reg.Histogram("dvecap_snapshot_write_duration_seconds",
		"Wall time to render and durably write one session snapshot.", nil)
	m.snapBytes = reg.Counter("dvecap_snapshot_bytes_total",
		"Snapshot payload bytes written by checkpoints.")
	m.snaps = reg.Counter("dvecap_snapshots_total",
		"Session snapshots written (explicit and auto checkpoints).")
}

// JournalExists reports whether dir already holds durable state — the
// fresh-start versus recover decision.
func JournalExists(dir string) (bool, error) { return wal.HasState(dir) }

// MakeDurable turns a freshly built machine durable: the baseline snapshot
// (render at LSN 0) is written before the first log segment exists, so a
// crash between the two leaves either nothing or a snapshot-only directory —
// never a log without a snapshot under it.
func (m *Machine) MakeDurable(cfg JournalConfig) error {
	m.attach(cfg)
	base, err := m.Render(0)
	if err != nil {
		return err
	}
	if err := wal.WriteSnapshot(cfg.Dir, 0, base, m.crash); err != nil {
		return err
	}
	return m.openLog(nil)
}

// LoadSnapshot decodes the newest usable snapshot in dir: a candidate that
// does not parse (decodeSnapshot), comes from a schema newer than
// SnapshotVersion or declares another LSN than its file name is skipped in
// favour of the generation before it, and the loaded snapshot keeps why
// (Snapshot.Skipped).
func LoadSnapshot(dir string) (*Snapshot, error) {
	start := time.Now()
	lsns, err := wal.SnapshotLSNs(dir)
	if err != nil {
		return nil, err
	}
	if len(lsns) == 0 {
		return nil, fmt.Errorf("journal: %s holds log segments but no snapshot", dir)
	}
	var skipped error // each reason, newest first
	for x := len(lsns) - 1; x >= 0; x-- {
		raw, err := wal.ReadSnapshot(dir, lsns[x])
		if err != nil {
			skipped = errors.Join(skipped, err)
			continue
		}
		cand, err := decodeSnapshot(raw)
		switch {
		case err != nil:
			skipped = errors.Join(skipped, fmt.Errorf("snapshot %d: %w", lsns[x], err))
		case cand.LSN != lsns[x]:
			skipped = errors.Join(skipped, fmt.Errorf("snapshot %d declares LSN %d", lsns[x], cand.LSN))
		default:
			cand.loadTime, cand.skipped = time.Since(start), skipped
			return cand, nil
		}
	}
	return nil, fmt.Errorf("journal: no usable snapshot in %s: %w", dir, skipped)
}

// decodeSnapshot parses one snapshot file. Versions 1–2 are one JSON
// document. A version-3–4 file is a document line and the block it frames
// (Snapshot.encode); the block must fill the rest of the file, pass its CRC
// and hold exactly the columns the document gives it (eachBlockArray, or
// version 3's float arrays, v3Arrays), which the document must not carry
// itself. Older versions' client objects then move into version 4's
// columns (fromClients).
func decodeSnapshot(raw []byte) (*Snapshot, error) {
	doc, _, _ := bytes.Cut(raw, []byte{'\n'})
	snap := new(Snapshot)
	if err := json.Unmarshal(doc, snap); err != nil {
		return nil, err
	}
	b := snap.Block
	switch {
	case snap.Version < 1 || snap.Version > SnapshotVersion:
		return nil, fmt.Errorf("version %d, this build reads 1..%d", snap.Version, SnapshotVersion)
	case snap.Version < 3 && (b != nil || len(bytes.TrimSpace(raw[len(doc):])) > 0):
		return nil, fmt.Errorf("version-%d document followed by a float block", snap.Version)
	case snap.Version < 3:
		return snap, snap.fromClients()
	case b == nil:
		return nil, fmt.Errorf("names no float block")
	case b.Offset != len(doc)+1 || b.Length < 0 || b.Length != len(raw)-b.Offset:
		return nil, fmt.Errorf("float block [%d,+%d) is not the %d bytes after the document", b.Offset, b.Length, len(raw)-len(doc)-1)
	case snap.Version == 3 && (b.Length%8 != 0 || b.Count != b.Length/8):
		return nil, fmt.Errorf("float block of %d bytes holds %d values", b.Length, b.Count)
	case crc32.Checksum(raw[b.Offset:], castagnoli) != b.CRC32C:
		return nil, fmt.Errorf("float block fails its CRC32-C")
	case snap.Version == 4 && len(snap.Cluster.Clients) > 0:
		return nil, fmt.Errorf("version-4 document carries client objects itself")
	case snap.Version == 4 && (snap.Planner == nil || snap.Planner.Eval == nil || snap.Provider == nil):
		return nil, fmt.Errorf("version-4 document misses the planner state or the delay store")
	}
	c := blockCodec{mode: reading, b: raw[b.Offset:]}
	if snap.Version == 3 {
		snap.v3Arrays(&c)
	} else {
		snap.eachBlockArray(&c, b.Count)
	}
	switch {
	case c.err != nil:
		return nil, c.err
	case len(c.b) > 0:
		return nil, fmt.Errorf("block holds %d bytes past its columns", len(c.b))
	case snap.Version == 3:
		return snap, snap.fromClients()
	}
	return snap, nil
}

// v3Arrays visits the float arrays a version-3 block holds, back to back:
// each client's delay row (one entry per server) when the snapshot carries
// no provider state, else the coordinate store's client coordinates (Dim
// per client) and each client's override values (one per override server).
func (snap *Snapshot) v3Arrays(c *blockCodec) {
	if pv := snap.Provider; pv == nil {
		for j := range snap.Cluster.Clients {
			column(c, (*[]float64)(&snap.Cluster.Clients[j].RTTRowMs), len(snap.Cluster.Servers))
		}
	} else if co := pv.Coord; co != nil {
		column(c, (*[]float64)(&co.Cli), co.Dim*len(co.OvSrv))
		if co.OvVal != nil {
			c.err = errInline
		}
		co.OvVal = make(core.FloatRows, len(co.OvSrv))
		for j := range co.OvVal {
			column(c, &co.OvVal[j], len(co.OvSrv[j]))
		}
	}
}

// replayQueue bounds the decoded events in flight between Recover's log
// reader and its applier. The reader runs ahead only to keep the applier fed
// across a run of records that decode slower than they apply; a full queue
// holds it back, so a long tail costs this many decoded events of memory,
// not the whole tail's.
const replayQueue = 1024

// errReplayStopped ends the log reader once the applier has stopped.
var errReplayStopped = errors.New("journal: replay stopped")

// Recover replays the log tail after the snapshot at lsn — the one the
// machine was restored from (RestoreMachine) — through apply and goes live,
// returning the number of events replayed. Rejections by apply are
// swallowed: the live path journals before applying, so an event the apply
// rejected is in the log too — and rejects again here, deterministically.
// A record the decoder refuses (the log and this build disagree about what
// the events MEAN) or an epoch marker the rebuilt trajectory does not pass
// through aborts recovery, naming its LSN, and why the snapshot it started
// from is not the newest when it is not (Snapshot.Skipped). Planner
// telemetry attaches only after the tail has replayed, so the repair series
// reflect live traffic, and the one-shot recovery gauges record what the
// replay cost.
//
// The log is read, checked and decoded on a second goroutine while this one
// applies, in LSN order — each record in one pass (readEvent) or, when that
// declines, by one EventDecoder; nothing a caller can see differs from a
// sequential replay — the events applied before an error, the error and the
// LSN it names. Both ends only read the data directory: replay appends
// nothing, and the log is opened for writing once the reader has exited.
func (m *Machine) Recover(cfg JournalConfig, lsn uint64) (int, error) {
	m.attach(cfg)
	m.base = lsn
	start := time.Now()
	lay := wal.Layout{}
	replayed, err := m.replayLog(lay)
	if err != nil && m.skipped != nil {
		err = fmt.Errorf("%w (recovering from snapshot %d: %w)", err, lsn, m.skipped)
	}
	if err != nil {
		return 0, err
	}
	if err := m.openLog(lay); err != nil {
		return 0, err
	}
	m.sinceSnap = replayed
	if reg := cfg.Telemetry; reg != nil {
		m.b.pl.SetTelemetry(reg)
		reg.Gauge("dvecap_recovery_snapshot_load_seconds",
			"Wall time of the last crash recovery's snapshot load: reading, decoding and rebuilding the machine it captured.").
			Set(m.snapLoad.Seconds())
		reg.Gauge("dvecap_recovery_duration_seconds",
			"Wall time of the last crash recovery (snapshot load excluded, log replay included).").
			Set(time.Since(start).Seconds())
		reg.Gauge("dvecap_recovery_events_replayed",
			"Log-tail events the last crash recovery replayed.").
			Set(float64(replayed))
	}
	return replayed, nil
}

// replayLog is Recover's pipeline: the reader decodes and queues, the
// crash hook's "replay:record" point before each record; this goroutine
// checks the epoch markers and applies the rest. An error on either side
// stops both, and the reader has exited by the time replayLog returns,
// having recorded the segments it read in lay.
func (m *Machine) replayLog(lay wal.Layout) (replayed int, err error) {
	events := make(chan *Event, replayQueue)
	stop, done := make(chan struct{}), make(chan struct{})
	var readErr error
	go func() {
		defer close(done)
		defer close(events)
		var dec EventDecoder
		_, readErr = wal.ReplayLayout(m.cfg.Dir, m.base, lay, func(lsn uint64, payload []byte) error {
			if err := m.crash("replay:record"); err != nil {
				return err
			}
			e, ok := readEvent(payload)
			if !ok {
				var err error
				if e, err = dec.Decode(payload); err != nil {
					return fmt.Errorf("journal: LSN %d: %w", lsn, err)
				}
			}
			select {
			case events <- e:
				return nil
			case <-stop:
				return errReplayStopped
			}
		})
	}()
	defer func() {
		close(stop)
		<-done
		if err == nil {
			err = readErr
		}
	}()
	lsn := m.base
	for e := range events {
		lsn++ // wal.Replay delivers the LSNs after m.base without a gap
		if e.Op == OpEpoch {
			if fs := m.b.pl.stats.FullSolves; fs != e.FullSolves {
				return replayed, fmt.Errorf("journal: replaying LSN %d: replay diverged: %d full solves at epoch marker expecting %d", lsn, fs, e.FullSolves)
			}
			continue
		}
		replayed++
		_ = m.apply(e) // a rejection here is one the live path saw too
	}
	return replayed, nil
}

// openLog opens the log for appends, taking the segments replay read from
// lay, and restarts the epoch tripwire.
func (m *Machine) openLog(lay wal.Layout) (err error) {
	m.lastFullSolves = m.b.pl.stats.FullSolves
	m.w, err = wal.Open(m.cfg.Dir, m.base, wal.Options{CrashHook: m.crash, Telemetry: m.cfg.Telemetry, Layout: lay})
	return err
}

// crash adapts the late-bound hook to the WAL layer's injection points.
func (m *Machine) crash(point string) error {
	if m.hook != nil {
		return m.hook(point)
	}
	return nil
}

// Durable reports whether the machine journals to a data directory — true
// from the start of MakeDurable or Recover, before the log opens.
func (m *Machine) Durable() bool { return m.cfg.Dir != "" }

// SetCrashHook installs the fault-injection hook consulted at the WAL's and
// the snapshot writer's named crash points. Test harness only.
func (m *Machine) SetCrashHook(hook func(point string) error) { m.hook = hook }

// NextLSN returns the LSN the next journaled record will receive.
func (m *Machine) NextLSN() uint64 { return m.w.NextLSN() }

// append journals the event's canonical encoding and syncs it; Commit calls
// it BEFORE the apply.
func (m *Machine) append(e *Event) error {
	if !m.Durable() {
		return nil
	}
	if m.closed {
		return m.cfg.ErrClosed
	}
	payload, err := e.Encode()
	if err != nil {
		return err
	}
	if _, err := m.w.Append(payload); err != nil {
		return fmt.Errorf("journal %s: %w", e.Op, err)
	}
	return nil
}

// Checkpoint writes the snapshot Render produces for the log head, truncates
// the segments it supersedes and prunes old generations, bounding the next
// recovery's replay to events journaled after this call. It returns the
// LSN the snapshot covers; a no-op (0, nil) when not durable.
func (m *Machine) Checkpoint() (uint64, error) {
	if !m.Durable() {
		return 0, nil
	}
	if m.closed {
		return 0, m.cfg.ErrClosed
	}
	if err := m.w.Err(); err != nil {
		return 0, err
	}
	var start time.Time
	if m.snapDur != nil {
		start = time.Now()
	}
	lsn := m.w.NextLSN() - 1
	payload, err := m.Render(lsn)
	if err != nil {
		return 0, err
	}
	if err := wal.WriteSnapshot(m.cfg.Dir, lsn, payload, m.crash); err != nil {
		return 0, err
	}
	if m.snapDur != nil {
		// The observation covers render + durable write; the log truncation
		// and snapshot pruning below are cleanup, not the checkpoint cost a
		// recovery-time budget cares about.
		m.snapDur.Observe(time.Since(start).Seconds())
		m.snapBytes.Add(uint64(len(payload)))
		m.snaps.Inc()
	}
	// The log keeps the tail of every generation kept: recovery falls back
	// to the oldest when the newer ones are unreadable.
	kept, err := wal.PruneSnapshots(m.cfg.Dir, keepSnapshots)
	if err != nil {
		return 0, err
	}
	if err := m.w.TruncateThrough(kept[0]); err != nil {
		return 0, err
	}
	m.sinceSnap = 0
	return lsn, nil
}

// Close checkpoints and releases the log. Further Appends and Checkpoints
// return the surface's ErrClosed. A no-op when not durable and on second
// call.
func (m *Machine) Close() error {
	if !m.Durable() || m.closed {
		return nil
	}
	_, err := m.Checkpoint()
	m.closed = true
	if cerr := m.w.Close(); err == nil {
		err = cerr
	}
	return err
}
