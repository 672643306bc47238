package experiments

import (
	"fmt"
	"strings"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/metrics"
	"dvecap/internal/milp"
	"dvecap/internal/xrand"
)

// RuntimeOptions tunes the §4.2 runtime comparison ("all of our proposed
// algorithms took less than 1 second"; lp_solve took 0.2 s / 41.5 s and did
// not finish on the large configurations).
type RuntimeOptions struct {
	// Scenarios defaults to Table1Scenarios.
	Scenarios []string
	// LPDeadline bounds each exact solve (default 60 s); the large
	// scenarios are reported as exceeding it, like the paper's ">10 hours".
	LPDeadline time.Duration
	// IncludeLP enables the exact-solver timings.
	IncludeLP bool
}

// RuntimeRow is one scenario's wall-clock timings.
type RuntimeRow struct {
	Scenario  string
	Heuristic map[string]time.Duration
	LP        time.Duration
	LPRan     bool
	// LPLimits names what ended the exact solve's unproven phases.
	LPLimits ExactLimits
}

// ExactLimits records which limits ended unproven exact searches; zero
// means every search proved optimality.
type ExactLimits uint8

const (
	// NodeCapHit: a search stopped at milp's node cap.
	NodeCapHit ExactLimits = 1 << iota
	// DeadlineHit: a search ran until its deadline.
	DeadlineHit
)

// exactLimit names the limit that ended one exact phase: none when it
// proved optimality, the deadline when its Elapsed reached it, and milp's
// node cap for any other unproven search.
func exactLimit(optimal bool, elapsed, deadline time.Duration) ExactLimits {
	switch {
	case optimal:
		return 0
	case elapsed >= deadline:
		return DeadlineHit
	default:
		return NodeCapHit
	}
}

// String is the runtime table's label for l.
func (l ExactLimits) String() string {
	return [...]string{"proven", "node cap hit", "deadline hit", "node cap and deadline hit"}[l]
}

// RuntimeResult reproduces the execution-time remarks of §4.2.
type RuntimeResult struct {
	Rows  []RuntimeRow
	Names []string
}

// Runtime measures one solve per scenario per algorithm (timings, unlike
// quality, need no averaging to make the paper's point: the heuristics are
// orders of magnitude inside the interactivity budget).
func Runtime(setup Setup, opt RuntimeOptions) (*RuntimeResult, error) {
	setup = setup.withDefaults()
	if opt.Scenarios == nil {
		opt.Scenarios = Table1Scenarios
	}
	if opt.LPDeadline == 0 {
		opt.LPDeadline = 60 * time.Second
	}
	algos := core.PaperAlgorithms()
	names := algorithmNames(algos)
	res := &RuntimeResult{Names: names}
	rng := xrand.New(setup.Seed)
	for si, scenario := range opt.Scenarios {
		cfg, err := dve.ParseScenario(dve.DefaultConfig(), scenario)
		if err != nil {
			return nil, err
		}
		world, err := setup.buildWorld(rng.Split(), cfg)
		if err != nil {
			return nil, err
		}
		truth := world.Problem()
		sopt := scratchOpts()
		row := RuntimeRow{Scenario: scenario, Heuristic: map[string]time.Duration{}}
		for _, tp := range algos {
			start := time.Now()
			if _, err := tp.Solve(rng.Split(), truth, sopt); err != nil {
				return nil, fmt.Errorf("runtime %s/%s: %w", scenario, tp.Name, err)
			}
			row.Heuristic[tp.Name] = time.Since(start)
		}
		if opt.IncludeLP && si < LPScenarioLimit {
			start := time.Now()
			_, iap, rap, err := milp.SolveCAP(truth, milp.SolverOptions{Deadline: opt.LPDeadline})
			if err != nil {
				return nil, fmt.Errorf("runtime %s lp: %w", scenario, err)
			}
			row.LP = time.Since(start)
			row.LPRan = true
			row.LPLimits = exactLimit(iap.Optimal, iap.Elapsed, opt.LPDeadline) |
				exactLimit(rap.Optimal, rap.Elapsed, opt.LPDeadline)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the timing table.
func (r *RuntimeResult) String() string {
	header := append([]string{"DVE conf."}, r.Names...)
	header = append(header, "lp_solve-equivalent")
	tb := metrics.NewTable(header...)
	for _, row := range r.Rows {
		cells := []string{row.Scenario}
		for _, n := range r.Names {
			cells = append(cells, row.Heuristic[n].Round(10*time.Microsecond).String())
		}
		switch {
		case !row.LPRan:
			cells = append(cells, "- (impractical)")
		case row.LPLimits != 0:
			cells = append(cells, fmt.Sprintf("%s (%s)", row.LP.Round(time.Millisecond), row.LPLimits))
		default:
			cells = append(cells, row.LP.Round(time.Millisecond).String())
		}
		tb.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString("Runtime: single-solve wall clock per scenario (§4.2)\n")
	b.WriteString(tb.String())
	return b.String()
}
