package dvecap

// Durable sessions (DESIGN.md §11). The whole write-ahead discipline —
// journal before apply, the interpreter both live traffic and replay go
// through, the snapshot body, recovery — is repair.Machine, the one state
// machine this surface shares with internal/director. This file holds only
// what is the session's own: how Open makes a session durable, and the
// fingerprint a recovering caller must match.

import (
	"errors"
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/repair"
	"dvecap/telemetry"
)

// ErrSessionClosed reports an event on a durable session after Close.
var ErrSessionClosed = errors.New("dvecap: session closed")

// journalConfig is what the session hands its durability engine.
func (cfg config) journalConfig() repair.JournalConfig {
	return repair.JournalConfig{
		Dir:           cfg.durDir,
		SnapshotEvery: cfg.snapEvery,
		Telemetry:     cfg.tele,
		ErrClosed:     ErrSessionClosed,
	}
}

// commit is the session's whole write path for an already resolved event:
// admit it (Machine.Check), journal it, apply it through the machine's
// interpreter, run the durable bookkeeping (epoch marker, checkpoint
// cadence) and take the auto-checkpoint when one is due. A refused event
// leaves the log untouched; an event the apply rejects for another reason
// stays journaled (replay re-rejects it) and skips the bookkeeping.
func (s *ClusterSession) commit(e *repair.Event) error {
	if err := s.m.Check(e); err != nil {
		return fmt.Errorf("dvecap: %w", err)
	}
	if err := s.m.Append(e); err != nil {
		return err
	}
	if err := s.m.Apply(e); err != nil {
		return err
	}
	if due, err := s.m.Applied(); err != nil || !due {
		return err
	}
	return s.Checkpoint()
}

// Checkpoint writes a snapshot of the session's current state and
// truncates the log segments it supersedes, bounding the next recovery's
// replay to events journaled after this call. A no-op on non-durable
// sessions. Auto-checkpointing (WithSnapshotEvery) calls this; call it
// explicitly before planned downtime — e.g. checkpoint, then drain, then
// stop, so a restart replays nothing.
func (s *ClusterSession) Checkpoint() (err error) {
	if !s.m.Durable() {
		return nil
	}
	defer s.span("checkpoint")(&err)
	_, err = s.m.Checkpoint()
	return err
}

// Close checkpoints a durable session and releases its log. Further events
// fail with ErrSessionClosed; read paths keep working. A no-op on
// non-durable sessions and on second call.
func (s *ClusterSession) Close() error { return s.m.Close() }

// openDurable is Open's durable branch: recover when dir already holds
// state, otherwise solve fresh and establish the baseline snapshot before
// the first log segment exists — a crash between the two leaves either
// nothing (next Open solves fresh again) or a snapshot-only directory
// (next Open recovers from it with an empty tail). There is no window
// where a log exists without a snapshot under it.
func (c *Cluster) openDurable(algorithm string, cfg config) (*ClusterSession, error) {
	has, err := repair.JournalExists(cfg.durDir)
	if err != nil {
		return nil, err
	}
	if has {
		return recoverSession(algorithm, cfg)
	}
	s, err := c.openSession(algorithm, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.m.MakeDurable(cfg.journalConfig()); err != nil {
		return nil, err
	}
	return s, nil
}

// recoverSession rebuilds a session from the newest readable snapshot plus
// the log tail after it, replayed through the SAME interpreter live traffic
// uses. The stored trajectory-shaping config (algorithm must match what
// the caller asked for; overflow policy and guard thresholds are adopted
// from the snapshot) wins over the caller's options — only the worker
// count is taken from the caller, since results are worker-invariant
// (DESIGN.md §8).
func recoverSession(algorithm string, cfg config) (*ClusterSession, error) {
	dir := cfg.durDir
	snap, err := repair.LoadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if snap.Algo != algorithm {
		return nil, fmt.Errorf("dvecap: stored session in %s uses algorithm %q, not %q", dir, snap.Algo, algorithm)
	}
	tp, ok := core.ByName(snap.Algo)
	if !ok {
		return nil, fmt.Errorf("dvecap: stored session uses unknown algorithm %q", snap.Algo)
	}
	cfg.overflow = OverflowPolicy(snap.Overflow)
	opt, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	m, err := repair.RestoreMachine(snap, repair.Config{Algo: tp, Opt: opt})
	if err != nil {
		return nil, fmt.Errorf("dvecap: %w", err)
	}
	if _, err := m.Recover(cfg.journalConfig(), snap.LSN); err != nil {
		return nil, err
	}
	// The trace log, like the planner's telemetry, attaches only now, with
	// the tail replayed: a restart does not re-trace pre-crash events.
	return &ClusterSession{m: m, binding: m.Binding(), tracer: telemetry.NewTracer(cfg.traceW)}, nil
}
