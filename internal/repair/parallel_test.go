package repair

import (
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// driveChurn applies a deterministic random event stream (joins, leaves,
// moves, delay updates) to the planner, returning the live handle set.
// Identical seeds produce identical streams, so two planners fed the same
// seed see the same events.
func driveChurn(t *testing.T, pl *Planner, p *core.Problem, seed uint64, events int) []int {
	t.Helper()
	rng := xrand.New(seed)
	live := make([]int, p.NumClients())
	for h := range live {
		live[h] = h
	}
	m := p.NumServers()
	for i := 0; i < events; i++ {
		switch rng.IntN(4) {
		case 0:
			h, err := pl.Join(rng.IntN(p.NumZones), rng.Uniform(0.05, 0.5), randRow(rng, m))
			if err != nil {
				t.Fatalf("event %d join: %v", i, err)
			}
			live = append(live, h)
		case 1:
			if len(live) > 1 {
				pos := rng.IntN(len(live))
				if err := pl.Leave(live[pos]); err != nil {
					t.Fatalf("event %d leave: %v", i, err)
				}
				live[pos] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case 2:
			if len(live) > 0 {
				if err := pl.Move(live[rng.IntN(len(live))], rng.IntN(p.NumZones)); err != nil {
					t.Fatalf("event %d move: %v", i, err)
				}
			}
		default:
			if len(live) > 0 {
				if err := pl.UpdateDelays(live[rng.IntN(len(live))], randRow(rng, m)); err != nil {
					t.Fatalf("event %d delays: %v", i, err)
				}
			}
		}
		if err := pl.TakeSolveErr(); err != nil {
			t.Fatalf("event %d guard solve: %v", i, err)
		}
	}
	return live
}

// TestPlannerWorkersDeterministic proves churn repair is bit-identical for
// every worker count: planners configured with 1, 4 and 8 workers consume
// the same event stream (drift guard armed, so full solves — and their
// sharded cost-matrix builds — fire too) and end in the same state. This
// is also the worker pool's -race stress under churn repair: the CI race
// job runs it with the detector on. The last trial runs long with the guard
// off — no full solve rebuilds the candidate-delta rows, so they are
// adjusted in place until the rebuild-after-N drift rule fires, which must
// happen on the same events for every worker count.
func TestPlannerWorkersDeterministic(t *testing.T) {
	for trial := 0; trial < 7; trial++ {
		rng := xrand.New(uint64(31000 + trial))
		events, guard := 400, 0.01 // trip often: full solves under churn
		if trial == 6 {
			events, guard = 40_000, 0
		}
		p := randProblem(rng.Split(), events)
		build := func(workers int) *Planner {
			cfg := testConfig()
			cfg.Opt.Workers = workers
			cfg.DriftPQoS = guard
			pl, err := New(cfg, p, xrand.New(uint64(500+trial)))
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			return pl
		}
		// The long leg draws its delay rows near per-zone prototypes
		// (settledStep): zones keep their hosts, so rows live long enough.
		drive := func(pl *Planner, seed uint64) {
			if guard != 0 {
				driveChurn(t, pl, p, seed, events)
				return
			}
			rng := xrand.New(seed)
			protos := zonePrototypes(pl, rng.Split())
			live := make([]int, pl.NumClients())
			for h := range live {
				live[h] = h
			}
			for i := 0; i < events; i++ {
				if err := settledStep(pl, rng, &live, protos); err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
			}
		}
		ref := build(1)
		seed := uint64(7700 + trial)
		drive(ref, seed)
		want := ref.Assignment()
		wantStats := ref.Stats()
		for _, workers := range []int{4, 8} {
			pl := build(workers)
			// The sharded planners run fully instrumented against the bare
			// sequential reference: equality below also proves telemetry is
			// observation-only (DESIGN.md §12).
			reg := telemetry.NewRegistry()
			pl.SetTelemetry(reg)
			drive(pl, seed)
			if guard == 0 && driftRebuilds(reg, pl.Stats().ZoneHandoffs) < 1 {
				t.Fatalf("trial %d workers=%d: %d events never crossed the rebuild-after-N rule", trial, workers, events)
			}
			got := pl.Assignment()
			for z := range want.ZoneServer {
				if want.ZoneServer[z] != got.ZoneServer[z] {
					t.Fatalf("trial %d workers=%d: zone %d on %d, sequential %d",
						trial, workers, z, got.ZoneServer[z], want.ZoneServer[z])
				}
			}
			for j := range want.ClientContact {
				if want.ClientContact[j] != got.ClientContact[j] {
					t.Fatalf("trial %d workers=%d: client %d contact %d, sequential %d",
						trial, workers, j, got.ClientContact[j], want.ClientContact[j])
				}
			}
			if got := pl.Stats(); got != wantStats {
				t.Fatalf("trial %d workers=%d: stats %+v, sequential %+v",
					trial, workers, got, wantStats)
			}
			checkPlanner(t, pl)
		}
	}
}
