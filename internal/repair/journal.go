package repair

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

// ErrJournalFailed marks every error a Journal returns once an append has
// failed: the log may end in a half-written frame, so acknowledging anything
// after it would lose the write on recovery. The surface is fail-stopped —
// reads keep working, mutations and checkpoints return the original fault
// wrapped in this sentinel — until the process restarts and recovers.
var ErrJournalFailed = wal.ErrFailed

// JournalConfig is what a durable front end hands the machine's Journal.
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

// Journal is the durability engine under the assignment state machine
// (Machine, machine.go), whichever front end drives it (DESIGN.md §11). Every
// event is encoded and appended (synced) BEFORE it is applied, so an event
// whose apply the caller saw acknowledged is on disk; snapshots bound replay;
// and recovery re-applies the log tail through the SAME interpreter live
// traffic uses, so a process killed mid-churn resumes bit-identical to one
// that was never interrupted.
//
// The Journal owns the log writer, the checkpoint cadence, the solver-epoch
// tripwire, the replaying/closed fences, the checkpoint and recovery series
// and the crash-injection hook; the machine owns the snapshot body and the
// interpreter. A nil *Journal is a non-durable machine: Append, Applied,
// Checkpoint and Close are no-ops on it. Not safe for concurrent use:
// ClusterSession is single-owner, and the director makes every call under its
// write sequencer — never under the lock its readers take, so the fsync in
// Append and the snapshot write in Checkpoint do not stall reads.
type Journal struct {
	cfg JournalConfig
	pl  *Planner
	w   *wal.Writer
	// base is the LSN the loaded snapshot covers; Replay starts after it.
	base uint64
	// sinceSnap counts applied events since the last checkpoint;
	// lastFullSolves detects planner epochs (full re-solves) so they get
	// advisory markers live and a divergence check on replay.
	sinceSnap      int
	lastFullSolves int
	// replaying suspends journaling while recovery re-applies the log
	// through the live mutators.
	replaying bool
	closed    bool
	// snapLoad is what loading the snapshot this journal recovers from cost
	// (LoadSnapshot plus RestoreMachine), reported beside the replay.
	snapLoad time.Duration
	// hook is the fault tests' crash-injection point. It is consulted through
	// the crash method, so tests can install it after the surface is open.
	hook func(point string) error

	snapDur   *telemetry.Histogram
	snapBytes *telemetry.Counter
	snaps     *telemetry.Counter
}

func newJournal(cfg JournalConfig, pl *Planner) *Journal {
	reg := cfg.Telemetry
	return &Journal{
		cfg:            cfg,
		pl:             pl,
		lastFullSolves: pl.stats.FullSolves,
		snapDur: reg.Histogram("dvecap_snapshot_write_duration_seconds",
			"Wall time to render and durably write one session snapshot.", nil),
		snapBytes: reg.Counter("dvecap_snapshot_bytes_total",
			"Snapshot payload bytes written by checkpoints."),
		snaps: reg.Counter("dvecap_snapshots_total",
			"Session snapshots written (explicit and auto checkpoints)."),
	}
}

// JournalExists reports whether dir already holds durable state — the
// fresh-start versus recover decision.
func JournalExists(dir string) (bool, error) { return wal.HasState(dir) }

// CreateJournal makes a freshly built surface durable: the baseline snapshot
// (render at LSN 0) is written before the first log segment exists, so a
// crash between the two leaves either nothing or a snapshot-only directory —
// never a log without a snapshot under it.
func CreateJournal(cfg JournalConfig, pl *Planner, render func(lsn uint64) ([]byte, error)) (*Journal, error) {
	j := newJournal(cfg, pl)
	base, err := render(0)
	if err != nil {
		return nil, err
	}
	if err := wal.WriteSnapshot(cfg.Dir, 0, base, j.crash); err != nil {
		return nil, err
	}
	return j, j.openLog()
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

// RecoverJournal returns the Journal of a machine rebuilt from the snapshot
// covering snapLSN, in replaying state: Replay re-applies the log tail and
// goes live.
func RecoverJournal(cfg JournalConfig, pl *Planner, snapLSN uint64) *Journal {
	j := newJournal(cfg, pl)
	j.base, j.replaying = snapLSN, true
	return j
}

// replayQueue bounds the decoded events in flight between Replay's log
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

// Replay streams the log tail after the snapshot through DecodeEvent and
// apply — the machine's interpreter — then opens the log for appending and
// returns the number of events replayed. Apply-level rejections are the
// caller's to swallow (a journaled event the live apply rejected rejects
// again here); an error from apply, an undecodable record or an epoch marker
// the rebuilt trajectory does not pass through aborts recovery. Planner
// telemetry attaches only after the tail has replayed, so the repair series
// reflect live traffic, and the one-shot recovery gauges record what the
// replay cost.
//
// The log is read, checked and decoded on a second goroutine while this one
// applies, in LSN order; nothing a caller can see differs from a sequential
// replay — the events applied before an error, the error and the LSN it
// names. Both ends only read the data directory: while replaying, the
// journal appends nothing (Applied only tracks epochs), and the log is
// opened for writing once the reader has exited.
func (j *Journal) Replay(apply func(*Event) error) (int, error) {
	start := time.Now()
	replayed, err := j.replayLog(apply)
	if err != nil {
		return 0, err
	}
	if err := j.openLog(); err != nil {
		return 0, err
	}
	j.replaying = false
	j.sinceSnap = replayed
	if reg := j.cfg.Telemetry; reg != nil {
		j.pl.SetTelemetry(reg)
		reg.Gauge("dvecap_recovery_snapshot_load_seconds",
			"Wall time of the last crash recovery's snapshot load: reading, decoding and rebuilding the machine it captured.").
			Set(j.snapLoad.Seconds())
		reg.Gauge("dvecap_recovery_duration_seconds",
			"Wall time of the last crash recovery (snapshot load excluded, log replay included).").
			Set(time.Since(start).Seconds())
		reg.Gauge("dvecap_recovery_events_replayed",
			"Log-tail events the last crash recovery replayed.").
			Set(float64(replayed))
	}
	return replayed, nil
}

// replayLog is Replay's pipeline: a reader goroutine runs wal.Replay and
// DecodeEvent and queues the events; this goroutine checks the epoch markers
// and applies the rest. An error on either side stops both, and the reader
// has exited by the time replayLog returns. The reader only fails on a
// record after every event it queued, so an apply error, which comes from
// an earlier record, takes precedence.
func (j *Journal) replayLog(apply func(*Event) error) (replayed int, err error) {
	events := make(chan logEvent, replayQueue)
	stop, done := make(chan struct{}), make(chan struct{})
	var readErr error
	go func() {
		defer close(done)
		defer close(events)
		_, readErr = wal.Replay(j.cfg.Dir, j.base, func(lsn uint64, payload []byte) error {
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
			if fs := j.pl.stats.FullSolves; fs != ev.e.FullSolves {
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

func (j *Journal) openLog() (err error) {
	j.w, err = wal.Open(j.cfg.Dir, j.base, wal.Options{CrashHook: j.crash, Telemetry: j.cfg.Telemetry})
	return err
}

// crash adapts the late-bound hook to the WAL layer's injection points.
func (j *Journal) crash(point string) error {
	if j.hook != nil {
		return j.hook(point)
	}
	return nil
}

// SetCrashHook installs the fault-injection hook consulted at the WAL's and
// the snapshot writer's named crash points. Test harness only.
func (j *Journal) SetCrashHook(hook func(point string) error) { j.hook = hook }

// NextLSN returns the LSN the next journaled record will receive.
func (j *Journal) NextLSN() uint64 { return j.w.NextLSN() }

// Append journals the event's canonical encoding and syncs it. Call it
// BEFORE applying the event; an event the apply then rejects replays as
// rejected too (same inputs, same validation), so the log may legitimately
// hold events that changed nothing.
func (j *Journal) Append(e *Event) error {
	if j == nil || j.replaying {
		return nil
	}
	if j.closed {
		return j.cfg.ErrClosed
	}
	payload, err := e.Encode()
	if err != nil {
		return err
	}
	if _, err := j.w.Append(payload); err != nil {
		return fmt.Errorf("journal %s: %w", e.Op, err)
	}
	return nil
}

// Applied runs the bookkeeping once an event has been applied: an advisory
// epoch marker when the planner ran a full re-solve, and the checkpoint
// cadence — due reports that the surface should checkpoint now. During
// replay it only tracks the epoch counter.
func (j *Journal) Applied() (due bool, err error) {
	if j == nil {
		return false, nil
	}
	if fs := j.pl.stats.FullSolves; fs != j.lastFullSolves {
		j.lastFullSolves = fs
		if err := j.Append(&Event{Op: OpEpoch, FullSolves: fs}); err != nil {
			return false, err
		}
	}
	if j.replaying {
		return false, nil
	}
	j.sinceSnap++
	return j.cfg.SnapshotEvery > 0 && j.sinceSnap >= j.cfg.SnapshotEvery, nil
}

// Checkpoint writes the snapshot render produces for the log head, truncates
// the segments it supersedes and prunes old generations, bounding the next
// recovery's replay to events journaled after this call. It returns the
// LSN the snapshot covers.
func (j *Journal) Checkpoint(render func(lsn uint64) ([]byte, error)) (uint64, error) {
	if j == nil {
		return 0, nil
	}
	if j.closed {
		return 0, j.cfg.ErrClosed
	}
	if err := j.w.Err(); err != nil {
		return 0, err
	}
	var start time.Time
	if j.snapDur != nil {
		start = time.Now()
	}
	lsn := j.w.NextLSN() - 1
	payload, err := render(lsn)
	if err != nil {
		return 0, err
	}
	if err := wal.WriteSnapshot(j.cfg.Dir, lsn, payload, j.crash); err != nil {
		return 0, err
	}
	if j.snapDur != nil {
		// The observation covers render + durable write; the log truncation
		// and snapshot pruning below are cleanup, not the checkpoint cost a
		// recovery-time budget cares about.
		j.snapDur.Observe(time.Since(start).Seconds())
		j.snapBytes.Add(uint64(len(payload)))
		j.snaps.Inc()
	}
	if err := j.w.TruncateThrough(lsn); err != nil {
		return 0, err
	}
	if err := wal.PruneSnapshots(j.cfg.Dir, keepSnapshots); err != nil {
		return 0, err
	}
	j.sinceSnap = 0
	return lsn, nil
}

// Close checkpoints and releases the log. Further Appends and Checkpoints
// return the surface's ErrClosed. A no-op on second call.
func (j *Journal) Close(render func(lsn uint64) ([]byte, error)) error {
	if j == nil || j.closed {
		return nil
	}
	_, err := j.Checkpoint(render)
	j.closed = true
	if cerr := j.w.Close(); err == nil {
		err = cerr
	}
	return err
}
