package experiments

import (
	"fmt"
	"strings"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/metrics"
	"dvecap/internal/runner"
	"dvecap/internal/xrand"
)

// AblationOptions tunes the extension/ablation study (not in the paper;
// DESIGN.md §5): static vs dynamic regret in the greedy zone assignment,
// and the effect of a local-search post-optimiser.
type AblationOptions struct {
	// Scenario defaults to 20s-80z-1000c-500cp.
	Scenario string
}

// ablationLocalSearchRounds caps the hill-climbing passes of the
// local-search variants.
const ablationLocalSearchRounds = 3

// AblationRow is one variant's quality.
type AblationRow struct {
	Variant string
	PQoS    metrics.Summary
	R       metrics.Summary
	IAPCost metrics.Summary
}

// AblationResult compares GreZ-GreC against its dynamic-regret variant and
// against both with a local-search pass appended.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation runs the study.
func Ablation(setup Setup, opt AblationOptions) (*AblationResult, error) {
	setup = setup.withDefaults()
	if opt.Scenario == "" {
		opt.Scenario = "20s-80z-1000c-500cp"
	}
	cfg, err := dve.ParseScenario(dve.DefaultConfig(), opt.Scenario)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name  string
		algo  core.TwoPhase
		local bool
	}{
		{"GreZ-GreC (paper)", core.GreZGreC, false},
		{"DynZ-GreC (dynamic regret)", core.DynZGreC, false},
		{"GreZ-GreC + LocalSearch", core.GreZGreC, true},
		{"DynZ-GreC + LocalSearch", core.DynZGreC, true},
	}

	type row map[string][3]float64
	reps, err := runner.Run(setup.Seed, setup.Reps, func(rep int, rng *xrand.RNG) (row, error) {
		world, err := setup.buildWorld(rng.Split(), cfg)
		if err != nil {
			return nil, err
		}
		truth := world.Problem()
		out := make(row, len(variants))
		// One workspace, evaluator and metrics buffer per replication:
		// every variant's solve, local search and evaluation reuses them.
		sopt := scratchOpts()
		var ev core.Evaluator
		var m core.Metrics
		for _, v := range variants {
			a, err := v.algo.Solve(rng.Split(), truth, sopt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.name, err)
			}
			if v.local {
				ev.Reset(truth, a)
				ev.LocalSearch(ablationLocalSearchRounds)
				a = ev.Assignment()
			}
			sopt.Scratch.EvaluateInto(truth, a, &m)
			out[v.name] = [3]float64{m.PQoS, m.Utilization, float64(core.IAPCost(truth, a.ZoneServer))}
		}
		return out, nil
	})
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}

	res := &AblationResult{}
	for _, v := range variants {
		r := AblationRow{Variant: v.name}
		for _, rm := range reps {
			vals := rm[v.name]
			r.PQoS.Add(vals[0])
			r.R.Add(vals[1])
			r.IAPCost.Add(vals[2])
		}
		res.Rows = append(res.Rows, r)
	}
	return res, nil
}

// String renders the comparison.
func (r *AblationResult) String() string {
	tb := metrics.NewTable("variant", "pQoS", "R", "IAP cost")
	for _, row := range r.Rows {
		tb.AddRow(row.Variant,
			fmt.Sprintf("%.3f ± %.3f", row.PQoS.Mean(), row.PQoS.CI95()),
			fmt.Sprintf("%.3f", row.R.Mean()),
			fmt.Sprintf("%.1f", row.IAPCost.Mean()))
	}
	var b strings.Builder
	b.WriteString("Ablation: regret policy and local search (extension beyond the paper)\n")
	b.WriteString(tb.String())
	return b.String()
}
