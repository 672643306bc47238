package experiments

import (
	"fmt"
	"strings"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/estimator"
	"dvecap/internal/metrics"
	"dvecap/internal/runner"
	"dvecap/internal/xrand"
)

// Table4Options tunes the imperfect-input experiment.
type Table4Options struct {
	// Scenario defaults to the paper's 20s-80z-1000c-500cp.
	Scenario string
}

// Table4Column is one error model's cells per algorithm.
type Table4Column struct {
	Model estimator.Model
	Cells map[string]*Cell
}

// Table4Result reproduces "Table 4. Impacts of imperfect input data":
// algorithms optimise against noisy delay estimates, quality is evaluated
// against the true delays.
type Table4Result struct {
	Columns []Table4Column
	Names   []string
}

// Table4 runs the experiment.
func Table4(setup Setup, opt Table4Options) (*Table4Result, error) {
	setup = setup.withDefaults()
	if opt.Scenario == "" {
		opt.Scenario = "20s-80z-1000c-500cp"
	}
	cfg, err := dve.ParseScenario(dve.DefaultConfig(), opt.Scenario)
	if err != nil {
		return nil, err
	}
	algos := core.PaperAlgorithms()
	names := algorithmNames(algos)
	res := &Table4Result{Names: names}
	// The paper's two error models: King (e = 1.2) and IDMaps (e = 2).
	for _, model := range []estimator.Model{estimator.King(), estimator.IDMaps()} {
		reps, err := runner.Run(setup.Seed, setup.Reps, func(rep int, rng *xrand.RNG) (repMetrics, error) {
			world, err := setup.buildWorld(rng.Split(), cfg)
			if err != nil {
				return nil, err
			}
			truth := world.Problem()
			estimated, err := model.PerturbProblem(rng.Split(), truth)
			if err != nil {
				return nil, err
			}
			sopt := scratchOpts()
			out := make(repMetrics, len(algos))
			for _, tp := range algos {
				// Solve on what the measurement service reports…
				a, err := tp.Solve(rng.Split(), estimated, sopt)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", tp.Name, err)
				}
				// …score on what the network actually does.
				out[tp.Name] = core.Evaluate(truth, a)
			}
			return out, nil
		})
		if err != nil {
			return nil, fmt.Errorf("table4 %s: %w", model.Name, err)
		}
		res.Columns = append(res.Columns, Table4Column{
			Model: model,
			Cells: aggregate(reps, names),
		})
	}
	return res, nil
}

// String renders the paper's Table 4 layout: one column per error factor,
// cells as "pQoS (R)".
func (r *Table4Result) String() string {
	header := []string{"e"}
	for _, col := range r.Columns {
		header = append(header, fmt.Sprintf("%.1f (%s)", col.Model.Factor, col.Model.Name))
	}
	tb := metrics.NewTable(header...)
	for _, n := range r.Names {
		cells := []string{n}
		for _, col := range r.Columns {
			cells = append(cells, col.Cells[n].String())
		}
		tb.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString("Table 4: impacts of imperfect input data, pQoS (R)\n")
	b.WriteString(tb.String())
	return b.String()
}
