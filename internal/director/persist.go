package director

// The director's write path and durable life cycle (DESIGN.md §11). The
// write-ahead discipline itself — every event journaled (synced) BEFORE it
// is applied, the interpreter live traffic and replay share, the snapshot
// body, recovery — is repair.Machine, the one state machine the director
// shares with the public ClusterSession. This file holds what is the
// director's own: how the machine's three steps sit under its two locks, and
// the service fingerprint a caller that recovers must match.
//
// The director journals the machine's one event vocabulary, fully resolved:
// stable IDs, the oracle-derived delay row of a join, the bandwidth
// refreshes of a membership change. Replay therefore never consults
// Config.Delays; the oracle matters again only for what happens after
// recovery, and the caller that recovers must supply it unchanged (it is
// measurement infrastructure, not mutable service state).

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/repair"
)

// ErrDirectorClosed reports a mutation on a durable director after Close.
var ErrDirectorClosed = errors.New("director: closed")

// Durable reports whether the director journals to a data directory.
func (d *Director) Durable() bool { return d.m.Durable() }

// journalConfig is what the director hands its durability engine.
func (c Config) journalConfig() repair.JournalConfig {
	return repair.JournalConfig{
		Dir:           c.DataDir,
		SnapshotEvery: c.SnapshotEvery,
		Telemetry:     c.Telemetry,
		ErrClosed:     ErrDirectorClosed,
	}
}

// commit is the write path of every mutator, taking a resolver's result:
// admit the event (Machine.Check — a refused one journals nothing), journal
// it — append and fsync, BEFORE it is applied, under wmu only,
// so readers are not behind the disk; apply it through the machine's
// interpreter with the state lock write-held — the only stretch of a write
// during which a reader can block; then the durable bookkeeping (epoch
// marker, checkpoint cadence) and the auto-checkpoint when one is due. An
// event the apply rejects stays journaled (replay re-rejects it) and skips
// the bookkeeping. The caller holds wmu throughout.
func (d *Director) commit(e *repair.Event, err error) error {
	if err != nil {
		return err
	}
	if err := d.m.Check(e); err != nil {
		return fmt.Errorf("director: %w", err)
	}
	start := d.stages.journal.begin()
	err = d.m.Append(e)
	d.stages.journal.end(start)
	if err != nil {
		return err
	}
	start = d.stages.apply.begin()
	d.mu.Lock()
	err = d.m.Apply(e)
	d.mu.Unlock()
	d.stages.apply.end(start)
	if err != nil {
		return fmt.Errorf("director: %w", err)
	}
	if due, err := d.m.Applied(); err != nil || !due {
		return err
	}
	_, err = d.checkpoint()
	return err
}

// commitClient is commit for the client verbs, which answer with the
// client's resulting assignment.
func (d *Director) commitClient(e *repair.Event, err error) (ClientInfo, error) {
	if err := d.commit(e, err); err != nil {
		return ClientInfo{}, err
	}
	return d.info(e.ID)
}

// checkpoint renders and writes a snapshot under wmu alone, which freezes
// the state; readers carry on under mu.RLock while it renders.
func (d *Director) checkpoint() (uint64, error) {
	start := d.stages.checkpoint.begin()
	lsn, err := d.m.Checkpoint()
	d.stages.checkpoint.end(start)
	if err == nil && d.m.Durable() {
		d.log.Debug("checkpoint written", "lsn", lsn)
	}
	return lsn, err
}

// Checkpoint writes a snapshot of the director's current state, truncates
// the log segments it supersedes, and returns the snapshot's LSN —
// bounding the next recovery's replay to events journaled after this
// call. A no-op (0, nil) on non-durable directors. Auto-checkpointing
// (Config.SnapshotEvery) calls this; POST /v1/checkpoint and the graceful
// shutdown path call it explicitly — checkpoint, then drain, then stop,
// so a restart replays nothing. Writers queue behind a checkpoint; readers
// do not.
func (d *Director) Checkpoint() (uint64, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.checkpoint()
}

// Close checkpoints a durable director and releases its log. Further
// mutations fail with ErrDirectorClosed; read paths keep working. A no-op
// on non-durable directors and on second call.
func (d *Director) Close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.m.Close()
}

// SetCrashHook installs the fault-injection hook consulted at the journal's
// named crash points. Like DurableState it exists for the kill/recover proof
// suite (package dvecap's durability_test.go), which drives this front end
// and ClusterSession through one harness.
func (d *Director) SetCrashHook(hook func(point string) error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.m.SetCrashHook(hook)
}

// DurableState renders the payload a checkpoint at the log's origin would
// write — everything a placement decision depends on — so the proof suite
// can compare two directors byte for byte.
func (d *Director) DurableState() ([]byte, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.m.Render(0)
}

// recoverDirector rebuilds a director from the newest readable snapshot
// in cfg.DataDir plus the log tail after it. The stored deployment wins
// over the caller's: servers, zones, delay model, traffic weight and the
// guard thresholds come from the snapshot, and the service fingerprint
// (algorithm, delay bound, bandwidth model) must match the caller's
// config exactly — an operator who recovers may change only the worker
// count (results are worker-invariant, DESIGN.md §8), the checkpoint
// cadence and the delay oracle's backing store (which must still be the
// same matrix; server and client nodes are bounds-checked against it).
func recoverDirector(cfg Config) (*Director, error) {
	dir := cfg.DataDir
	if cfg.Delays == nil {
		return nil, fmt.Errorf("director: nil delay matrix")
	}
	snap, err := repair.LoadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if snap.Director == nil {
		if len(snap.Cluster.Servers) == 0 {
			// Index-addressed problem, no cluster spec: what a director wrote
			// before it moved onto the machine (its journal vocabulary went
			// with it). Nothing in the directory has been touched.
			return nil, fmt.Errorf("director: data directory %s predates the machine snapshot format; this build cannot read it", dir)
		}
		return nil, fmt.Errorf("director: snapshot in %s: not a director's: no director state", dir)
	}
	fp := snap.Director
	if snap.Algo != cfg.Algorithm {
		return nil, fmt.Errorf("director: stored state in %s uses algorithm %q, not %q", dir, snap.Algo, cfg.Algorithm)
	}
	if snap.Cluster.DelayBoundMs != cfg.DelayBoundMs || fp.FrameRate != cfg.FrameRate || fp.MessageBytes != cfg.MessageBytes {
		return nil, fmt.Errorf("director: stored state in %s has fingerprint D=%v/fr=%v/mb=%v, caller asks D=%v/fr=%v/mb=%v",
			dir, snap.Cluster.DelayBoundMs, fp.FrameRate, fp.MessageBytes,
			cfg.DelayBoundMs, cfg.FrameRate, cfg.MessageBytes)
	}
	algo, ok := core.ByName(snap.Algo)
	if !ok {
		return nil, fmt.Errorf("director: stored state uses unknown algorithm %q", snap.Algo)
	}
	for _, n := range slices.Concat(fp.ClientNodes, fp.ServerNodes) {
		if n < 0 || n >= cfg.Delays.N() {
			return nil, fmt.Errorf("director: snapshot in %s places a client or server on node %d outside delay matrix (%d nodes)", dir, n, cfg.Delays.N())
		}
	}
	m, err := repair.RestoreMachine(snap, cfg.plannerConfig(algo))
	if err != nil {
		return nil, fmt.Errorf("director: %w", err)
	}
	d := newDirector(cfg, algo, m)
	recStart := time.Now()
	replayed, err := m.Recover(cfg.journalConfig(), snap.LSN)
	if err != nil {
		return nil, err
	}
	d.log.Info("recovered from journal",
		"dir", dir, "snapshot_lsn", snap.LSN, "events_replayed", replayed,
		"clients", m.Binding().Len(), "replay", time.Since(recStart))
	return d, nil
}
