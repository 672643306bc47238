package repair

import (
	"fmt"
	"math"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// sparseCoordBacked is p behind a coordinate provider that keeps every
// third measurement as an override: the rest of each row was handed over as
// NaN and reads as the coordinate prediction.
func sparseCoordBacked(p *core.Problem) *core.Problem {
	q := p.Clone()
	cp := core.NewCoordProviderFromSS(q.SS, 0)
	for j, row := range q.CS {
		for i := range row {
			if (i+j)%3 != 0 {
				row[i] = math.NaN()
			}
		}
		cp.AppendClient(row)
	}
	q.CS, q.Delays = nil, cp
	return q
}

// holedRow is randRow with some entries unmeasured (NaN) and, now and then,
// one sitting exactly on the bound.
func holedRow(rng *xrand.RNG, m int, bound float64) []float64 {
	row := randRow(rng, m)
	for i := range row {
		switch rng.IntN(6) {
		case 0:
			row[i] = math.NaN()
		case 1:
			row[i] = bound
		}
	}
	return row
}

// indexStep is plannerStep plus what only the late index cares about:
// joins and refreshes with unmeasured entries, per-server delay columns,
// server removal after a drain, and — every few events — a full solve.
func indexStep(pl *Planner, rng *xrand.RNG, live *[]int) error {
	p := pl.Problem()
	m := p.NumServers()
	switch rng.IntN(8) {
	case 0:
		h, err := pl.Join(rng.IntN(p.NumZones), rng.Uniform(0.05, 0.5), holedRow(rng, m, p.D))
		if err != nil {
			return err
		}
		*live = append(*live, h)
	case 1:
		if len(*live) > 0 {
			return pl.UpdateDelays((*live)[rng.IntN(len(*live))], holedRow(rng, m, p.D))
		}
	case 2:
		if n := len(*live); n > 0 {
			hs := []int{(*live)[rng.IntN(n)]}
			return pl.UpdateServerDelayColumn(rng.IntN(m), hs, []float64{rng.Uniform(0, 500)})
		}
	case 3: // drain, re-solve with the drain in flight, then retire the server
		if pl.availableServers() > 1 {
			i := rng.IntN(m)
			if pl.Draining(i) {
				return nil
			}
			if err := pl.DrainServer(i); err != nil {
				return err
			}
			if err := pl.FullSolve(); err != nil {
				return err
			}
			_, err := pl.RemoveServer(i)
			return err
		}
	case 4:
		return pl.FullSolve()
	default:
		return plannerStep(pl, rng, live)
	}
	return nil
}

// TestIndexedFullSolveMatchesRowCount drives the same event stream through
// a planner whose full solves read the late index and one forced to count
// every matrix from the delay rows: hosting, contacts, delays and every
// repair counter must stay identical after every event — with drains in
// flight, with a sticky bonus, with the drift guard firing, sequential and
// sharded, on the raw matrix, a sparse coordinate provider fed NaN rows and
// the shared-row provider — and the index must equal a recomputation from
// the rows throughout.
func TestIndexedFullSolveMatchesRowCount(t *testing.T) {
	storages := []struct {
		name  string
		build func(*core.Problem) *core.Problem
	}{
		{"raw", func(p *core.Problem) *core.Problem { return p }},
		{"coord-sparse", sparseCoordBacked},
		{core.ProviderSharedRow, func(p *core.Problem) *core.Problem { return providerBacked(p, core.ProviderSharedRow) }},
	}
	for _, st := range storages {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", st.name, workers), func(t *testing.T) {
				for trial := 0; trial < 6; trial++ {
					seed := uint64(9900 + trial)
					const events = 60
					cfg := testConfig()
					cfg.Opt.Workers = workers
					if trial%2 == 1 {
						cfg.StickyBonus = 0.5
					}
					if trial%3 == 0 {
						cfg.DriftPQoS = 0.05
					}
					build := func() (*Planner, *xrand.RNG, []int) {
						rng := xrand.New(seed)
						p := st.build(randProblem(rng.Split(), events))
						c := cfg
						c.Opt.Scratch = nil // one workspace per planner
						pl, err := New(c, p, rng.Split())
						if err != nil {
							t.Fatalf("trial %d: %v", trial, err)
						}
						live := make([]int, p.NumClients())
						for h := range live {
							live[h] = h
						}
						return pl, rng, live
					}
					plI, rngI, liveI := build()
					plR, rngR, liveR := build()
					plR.cfg.Opt.Late = nil // every matrix from the rows, GreC from the delays

					indexed := 0
					for step := 0; step < events; step++ {
						solves := plI.Stats().FullSolves
						errI := indexStep(plI, rngI, &liveI)
						errR := indexStep(plR, rngR, &liveR)
						if (errI == nil) != (errR == nil) || (errI != nil && errI.Error() != errR.Error()) {
							t.Fatalf("trial %d step %d: indexed err %v, from-rows err %v", trial, step, errI, errR)
						}
						samePlannerState(t, fmt.Sprintf("trial %d step %d", trial, step), plR, plI)
						if err := plI.late.Verify(plI.prob); err != nil {
							t.Fatalf("trial %d step %d: %v", trial, step, err)
						}
						if plI.Stats().FullSolves > solves {
							if src := plI.cfg.Opt.Scratch.CostMatrixSource(); src != core.CostMatrixFromIndex {
								t.Fatalf("trial %d step %d: indexed planner built its matrix from %q", trial, step, src)
							}
							if src := plR.cfg.Opt.Scratch.CostMatrixSource(); src != core.CostMatrixFromRows {
								t.Fatalf("trial %d step %d: from-rows planner built its matrix from %q", trial, step, src)
							}
							indexed++
						}
					}
					if indexed == 0 {
						t.Fatalf("trial %d: no full solve ran", trial)
					}
				}
			})
		}
	}
}

// TestCostMatrixSourceCounters: with a registry attached, every full solve
// after the planner's first is counted under source="index"; a planner
// rebuilt from exported state (the recovery path) starts from the rows
// again, once.
func TestCostMatrixSourceCounters(t *testing.T) {
	counts := func(reg *telemetry.Registry) (index, rows uint64) {
		const name = "dvecap_solve_cost_matrix_total"
		return reg.Counter(name, "", "source", core.CostMatrixFromIndex).Value(),
			reg.Counter(name, "", "source", core.CostMatrixFromRows).Value()
	}
	rng := xrand.New(31)
	p := randProblem(rng.Split(), 10)
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pl.SetTelemetry(reg)
	if _, err := pl.Join(0, 0.2, randRow(rng, pl.NumServers())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := pl.FullSolve(); err != nil {
			t.Fatal(err)
		}
	}
	if index, rows := counts(reg); index != 3 || rows != 0 {
		t.Fatalf("after 3 re-solves: index=%v rows=%v, want 3 and 0 (the first solve ran before the registry attached)", index, rows)
	}

	st, err := pl.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewFromState(testConfig(), pl.Problem(), st)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := telemetry.NewRegistry()
	back.SetTelemetry(reg2)
	for i := 0; i < 2; i++ {
		if err := back.FullSolve(); err != nil {
			t.Fatal(err)
		}
	}
	if index, rows := counts(reg2); index != 1 || rows != 1 {
		t.Fatalf("restored planner: index=%v rows=%v, want 1 and 1 (the index is rebuilt, not restored)", index, rows)
	}
}
