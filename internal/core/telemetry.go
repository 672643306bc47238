package core

import (
	"time"

	"dvecap/telemetry"
)

// evTele holds the evaluator's pre-registered metric handles. The zero
// value (all nil) is the disabled state: every record call is a nil-method
// no-op, so the hot paths carry only a nil check when telemetry is off.
//
// Telemetry is observation only — nothing here feeds back into scoring or
// move selection, so attaching a registry cannot change an outcome.
type evTele struct {
	invalidations *telemetry.Counter   // cache rows marked dirty
	rowsKept      *telemetry.Counter   // cache rows left clean by an Adopt
	rowsRebased   *telemetry.Counter   // cache rows rebased by their zone's rehosting
	rowRefreshes  *telemetry.Counter   // cache rows rebuilt from scratch for a fold
	rowHits       *telemetry.Counter   // cache rows folded without a rebuild
	rowAdjusts    *telemetry.Counter   // O(servers) in-place row adjustments
	scanRounds    *telemetry.Counter   // zone-move scans run
	scanDur       *telemetry.Histogram // zone-move scan wall time, seconds
}

// SetTelemetry attaches (or, with nil, detaches) a metrics registry. The
// counters cover the candidate-delta cache — invalidations from mutations,
// in-place adjustments, and per fold (a local-search scan, or the
// single-zone folds of ImproveZone and BestZoneHost) how many rows were
// rebuilt versus served as maintained — plus a round count and wall-time
// histogram per local-search zone-move scan. Safe to call at any time; the
// registry's instruments are shared if several evaluators attach to one.
func (ev *Evaluator) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		ev.tele = evTele{}
		return
	}
	ev.tele = evTele{
		invalidations: reg.Counter("dvecap_cache_invalidations_total",
			"Candidate-delta cache rows that went from clean to dirty: single rows by the drift rule, a bulk delay column or a rehosting that fails the cost rule, every clean row by a rebind, a checkpoint barrier, a server-dimension change or the traffic term switching on."),
		rowsKept: reg.Counter("dvecap_cache_rows_kept_total",
			"Candidate-delta cache rows that stayed clean across an adopted full re-solve."),
		rowsRebased: reg.Counter("dvecap_cache_rows_rebased_total",
			"Candidate-delta cache rows rebased in O(servers) by their zone's rehosting — a zone move, a handoff, a drain, an adopted re-solve — instead of going dirty."),
		rowRefreshes: reg.Counter("dvecap_cache_row_refreshes_total",
			"Candidate-delta cache rows rebuilt from scratch for a zone-move scan or a seeded repair fold."),
		rowHits: reg.Counter("dvecap_cache_row_hits_total",
			"Candidate-delta cache rows folded without a rebuild by a zone-move scan or a seeded repair fold."),
		rowAdjusts: reg.Counter("dvecap_cache_row_adjustments_total",
			"O(servers) in-place adjustments of a candidate-delta cache row for one client's join, leave, move, delay refresh or contact switch."),
		scanRounds: reg.Counter("dvecap_scan_rounds_total",
			"Zone-move candidate scans executed."),
		scanDur: reg.Histogram("dvecap_scan_duration_seconds",
			"Wall time of one zone-move candidate scan.", nil),
	}
}

// scanStart begins per-scan accounting: it counts the round, samples the
// clock only when a duration histogram is attached (time.Now is not free
// on the scan path), and pre-counts the dirty rows serially — the scan
// itself may refresh rows from worker goroutines, and counting beforehand
// keeps atomics (and any telemetry work at all) out of the sharded loop.
func (ev *Evaluator) scanStart(n int) (start time.Time) {
	ev.tele.scanRounds.Inc()
	if ev.tele.rowRefreshes != nil {
		var dirty uint64
		for z := 0; z < n; z++ {
			if ev.cache.dirty[z] {
				dirty++
			}
		}
		ev.tele.rowRefreshes.Add(dirty)
		ev.tele.rowHits.Add(uint64(n) - dirty)
	}
	if ev.tele.scanDur != nil {
		start = time.Now()
	}
	return start
}

// scanEnd completes the accounting scanStart opened.
func (ev *Evaluator) scanEnd(start time.Time) {
	if ev.tele.scanDur != nil {
		ev.tele.scanDur.Observe(time.Since(start).Seconds())
	}
}
