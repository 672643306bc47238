package experiments

import (
	"fmt"
	"strings"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/metrics"
	"dvecap/internal/milp"
	"dvecap/internal/runner"
	"dvecap/internal/xrand"
)

// Table1Scenarios are the paper's four DVE configurations.
var Table1Scenarios = []string{
	"5s-15z-200c-100cp",
	"10s-30z-400c-200cp",
	"20s-80z-1000c-500cp",
	"30s-160z-2000c-1000cp",
}

// LPScenarioLimit is the number of leading Table1Scenarios on which the
// exact branch-and-bound baseline is attempted — the first two, exactly as
// in the paper ("lp_solve can only be applied to small size DVEs").
const LPScenarioLimit = 2

// Table1Options tunes the Table 1 run.
type Table1Options struct {
	// IncludeLP adds the exact lp_solve-equivalent column on the small
	// scenarios.
	IncludeLP bool
	// LPReps caps the exact solver's replications (it is far slower than
	// the heuristics); 0 means min(Reps, 10).
	LPReps int
	// LPDeadline bounds each exact solve; 0 means 60s.
	LPDeadline time.Duration
	// Scenarios overrides the default list (useful for quick smoke runs).
	Scenarios []string
}

// Table1Row is one scenario's results across algorithms.
type Table1Row struct {
	Scenario string
	Cells    map[string]*Cell // algorithm name → cell
	// LP is the exact baseline cell, nil when not run for this scenario.
	LP *Cell
	// LPTime is the mean exact-solver wall time (both phases).
	LPTime time.Duration
	// LPLimits names the limits that ended unproven exact runs; zero when
	// every run proved optimality.
	LPLimits ExactLimits
}

// Table1Result reproduces "Table 1. pQoS(R) with different configurations".
type Table1Result struct {
	Rows  []Table1Row
	Names []string
}

// Table1 runs the paper's Table 1: the four two-phase heuristics on four
// scenario sizes, plus the exact MILP on the two small ones.
func Table1(setup Setup, opt Table1Options) (*Table1Result, error) {
	setup = setup.withDefaults()
	scenarios := opt.Scenarios
	if scenarios == nil {
		scenarios = Table1Scenarios
	}
	algos := core.PaperAlgorithms()
	names := algorithmNames(algos)
	res := &Table1Result{Names: names}
	for si, scenario := range scenarios {
		cfg, err := dve.ParseScenario(dve.DefaultConfig(), scenario)
		if err != nil {
			return nil, err
		}
		reps, err := setup.runAlgorithms(cfg, algos)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", scenario, err)
		}
		row := Table1Row{Scenario: scenario, Cells: aggregate(reps, names)}
		if opt.IncludeLP && si < LPScenarioLimit {
			lpCell, lpTime, lpLimits, err := table1LP(setup, cfg, opt)
			if err != nil {
				return nil, fmt.Errorf("table1 %s lp: %w", scenario, err)
			}
			row.LP, row.LPTime, row.LPLimits = lpCell, lpTime, lpLimits
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// table1LP runs the exact two-phase solver on a scenario.
func table1LP(setup Setup, cfg dve.Config, opt Table1Options) (*Cell, time.Duration, ExactLimits, error) {
	lpReps := opt.LPReps
	if lpReps <= 0 {
		lpReps = setup.Reps
		if lpReps > 10 {
			lpReps = 10
		}
	}
	deadline := opt.LPDeadline
	if deadline == 0 {
		deadline = 60 * time.Second
	}
	type lpOut struct {
		m       core.Metrics
		elapsed time.Duration
		limits  ExactLimits
	}
	lpSetup := setup
	lpSetup.Reps = lpReps
	results, err := runner.Run(setup.Seed, lpReps, func(rep int, rng *xrand.RNG) (lpOut, error) {
		world, err := lpSetup.buildWorld(rng.Split(), cfg)
		if err != nil {
			return lpOut{}, err
		}
		truth := world.Problem()
		start := time.Now()
		a, iap, rap, err := milp.SolveCAP(truth, milp.SolverOptions{Deadline: deadline})
		if err != nil {
			return lpOut{}, err
		}
		return lpOut{
			m:       core.Evaluate(truth, a),
			elapsed: time.Since(start),
			limits:  exactLimit(iap.Optimal, iap.Elapsed, deadline) | exactLimit(rap.Optimal, rap.Elapsed, deadline),
		}, nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	cell := &Cell{}
	var total time.Duration
	var limits ExactLimits
	for _, r := range results {
		cell.PQoS.Add(r.m.PQoS)
		cell.R.Add(r.m.Utilization)
		total += r.elapsed
		limits |= r.limits
	}
	return cell, total / time.Duration(len(results)), limits, nil
}

// String renders the table in the paper's layout.
func (r *Table1Result) String() string {
	header := append([]string{"DVE conf."}, r.Names...)
	header = append(header, "lp_solve")
	tb := metrics.NewTable(header...)
	for _, row := range r.Rows {
		cells := []string{row.Scenario}
		for _, n := range r.Names {
			cells = append(cells, row.Cells[n].String())
		}
		if row.LP != nil {
			suffix := ""
			if row.LPLimits != 0 {
				// An exact run stopped at a limit (LPLimits names it); the
				// cell averages in its incumbent's pQoS.
				suffix = "*"
			}
			cells = append(cells, fmt.Sprintf("%s%s [%.1fs]", row.LP.String(), suffix, row.LPTime.Seconds()))
		} else {
			cells = append(cells, "-")
		}
		tb.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString("Table 1: pQoS (R) with different configurations\n")
	b.WriteString(tb.String())
	return b.String()
}
