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
// cadence, the solver-epoch tripwire, the replaying/closed fences, the
// checkpoint and recovery series and the crash-injection hook. A machine
// with no log config is not durable: Append, Applied, Checkpoint and Close
// are no-ops on it. The director makes every journal call under its write
// sequencer — never under the lock its readers take, so the fsync in Append
// and the snapshot write in Checkpoint do not stall reads.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

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
	// SnapshotEvery makes Applied report a checkpoint due every this many
	// applied events (0 = only explicit checkpoints).
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
	m.lastFullSolves = m.b.pl.stats.FullSolves
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
	return m.openLog()
}

// LoadSnapshot decodes the newest usable snapshot in dir: a candidate that
// does not parse, comes from a schema newer than SnapshotVersion or declares
// another LSN than its file name is skipped in favour of the generation
// before it.
func LoadSnapshot(dir string) (*Snapshot, error) {
	start := time.Now()
	lsns, err := wal.SnapshotLSNs(dir)
	if err != nil {
		return nil, err
	}
	if len(lsns) == 0 {
		return nil, fmt.Errorf("journal: %s holds log segments but no snapshot", dir)
	}
	var lastErr error
	for x := len(lsns) - 1; x >= 0; x-- {
		raw, err := wal.ReadSnapshot(dir, lsns[x])
		if err != nil {
			lastErr = err
			continue
		}
		cand := new(Snapshot)
		if err := json.Unmarshal(raw, cand); err != nil {
			lastErr = fmt.Errorf("snapshot %d: %w", lsns[x], err)
			continue
		}
		switch {
		case cand.Version < 1 || cand.Version > SnapshotVersion:
			lastErr = fmt.Errorf("snapshot %d has version %d, this build reads 1..%d", lsns[x], cand.Version, SnapshotVersion)
		case cand.LSN != lsns[x]:
			lastErr = fmt.Errorf("snapshot %d declares LSN %d", lsns[x], cand.LSN)
		default:
			cand.loadTime = time.Since(start)
			return cand, nil
		}
	}
	return nil, fmt.Errorf("journal: no usable snapshot in %s: %w", dir, lastErr)
}

// replayQueue bounds the decoded events in flight between Recover's log
// reader and its applier. The reader runs ahead only to keep the applier fed
// across a run of records that decode slower than they apply; a full queue
// holds it back, so a long tail costs this many decoded events of memory,
// not the whole tail's.
const replayQueue = 1024

// errReplayStopped ends the log reader once the applier has stopped.
var errReplayStopped = errors.New("journal: replay stopped")

// logEvent is one decoded journal record on its way to the applier.
type logEvent struct {
	lsn uint64
	e   *Event
}

// Recover replays the log tail after the snapshot at lsn — the one the
// machine was restored from (RestoreMachine) — through Apply and goes live,
// returning the number of events replayed. Apply-level rejections are
// swallowed: the live path journals before applying, so an event the apply
// rejected is in the log too — and rejects again here, deterministically.
// An unknown op (the log and this build disagree about what the events
// MEAN), an undecodable record or an epoch marker the rebuilt trajectory
// does not pass through aborts recovery. Planner telemetry attaches only
// after the tail has replayed, so the repair series reflect live traffic,
// and the one-shot recovery gauges record what the replay cost.
//
// The log is read, checked and decoded on a second goroutine while this one
// applies, in LSN order; nothing a caller can see differs from a sequential
// replay — the events applied before an error, the error and the LSN it
// names. Both ends only read the data directory: while replaying, the
// machine appends nothing (Applied only tracks epochs), and the log is
// opened for writing once the reader has exited.
func (m *Machine) Recover(cfg JournalConfig, lsn uint64) (int, error) {
	m.attach(cfg)
	m.base, m.replaying = lsn, true
	start := time.Now()
	replayed, err := m.replayLog(func(e *Event) error {
		switch err := m.Apply(e); {
		case errors.Is(err, errUnknownOp):
			return err
		case err != nil:
			return nil
		}
		_, err := m.Applied()
		return err
	})
	if err != nil {
		return 0, err
	}
	if err := m.openLog(); err != nil {
		return 0, err
	}
	m.replaying = false
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

// replayLog is Recover's pipeline: a reader goroutine runs wal.Replay and
// DecodeEvent and queues the events; this goroutine checks the epoch markers
// and applies the rest. An error on either side stops both, and the reader
// has exited by the time replayLog returns. The reader only fails on a
// record after every event it queued, so an apply error, which comes from
// an earlier record, takes precedence.
func (m *Machine) replayLog(apply func(*Event) error) (replayed int, err error) {
	events := make(chan logEvent, replayQueue)
	stop, done := make(chan struct{}), make(chan struct{})
	var readErr error
	go func() {
		defer close(done)
		defer close(events)
		_, readErr = wal.Replay(m.cfg.Dir, m.base, func(lsn uint64, payload []byte) error {
			select {
			case <-stop:
				return errReplayStopped
			default:
			}
			e, err := DecodeEvent(payload)
			if err != nil {
				return fmt.Errorf("journal: LSN %d: %w", lsn, err)
			}
			select {
			case events <- logEvent{lsn, e}:
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
	for ev := range events {
		if ev.e.Op == OpEpoch {
			if fs := m.b.pl.stats.FullSolves; fs != ev.e.FullSolves {
				return replayed, fmt.Errorf("journal: replaying LSN %d: replay diverged: %d full solves at epoch marker expecting %d", ev.lsn, fs, ev.e.FullSolves)
			}
			continue
		}
		replayed++
		if err := apply(ev.e); err != nil {
			return replayed, fmt.Errorf("journal: replaying LSN %d: %w", ev.lsn, err)
		}
	}
	return replayed, nil
}

func (m *Machine) openLog() (err error) {
	m.w, err = wal.Open(m.cfg.Dir, m.base, wal.Options{CrashHook: m.crash, Telemetry: m.cfg.Telemetry})
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

// Append journals the event's canonical encoding and syncs it. Call it
// BEFORE applying the event; an event the apply then rejects replays as
// rejected too (same inputs, same validation), so the log may legitimately
// hold events that changed nothing.
func (m *Machine) Append(e *Event) error {
	if !m.Durable() || m.replaying {
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

// Applied runs the bookkeeping once an event has been applied: an advisory
// epoch marker when the planner ran a full re-solve, and the checkpoint
// cadence — due reports that the surface should checkpoint now. During
// replay it only tracks the epoch counter.
func (m *Machine) Applied() (due bool, err error) {
	if !m.Durable() {
		return false, nil
	}
	if fs := m.b.pl.stats.FullSolves; fs != m.lastFullSolves {
		m.lastFullSolves = fs
		if err := m.Append(&Event{Op: OpEpoch, FullSolves: fs}); err != nil {
			return false, err
		}
	}
	if m.replaying {
		return false, nil
	}
	m.sinceSnap++
	return m.cfg.SnapshotEvery > 0 && m.sinceSnap >= m.cfg.SnapshotEvery, nil
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
	if err := m.w.TruncateThrough(lsn); err != nil {
		return 0, err
	}
	if err := wal.PruneSnapshots(m.cfg.Dir, keepSnapshots); err != nil {
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
