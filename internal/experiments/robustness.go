package experiments

import (
	"fmt"
	"strings"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/metrics"
)

// RobustnessOptions tunes the cross-topology check. The paper states it
// ran both BRITE-generated and real (AT&T backbone) topologies "and
// obtained similar results", presenting only the BRITE numbers; this
// experiment makes the cross-check concrete across three substrates.
type RobustnessOptions struct {
	// Scenario defaults to 20s-80z-1000c-500cp.
	Scenario string
}

// RobustnessRow is one substrate's results.
type RobustnessRow struct {
	Topology TopologyKind
	Cells    map[string]*Cell
}

// RobustnessResult holds the cross-topology comparison.
type RobustnessResult struct {
	Rows  []RobustnessRow
	Names []string
}

// Robustness runs the paper's four algorithms on the same scenario over
// each topology substrate.
func Robustness(setup Setup, opt RobustnessOptions) (*RobustnessResult, error) {
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
	res := &RobustnessResult{Names: names}
	for _, topo := range []TopologyKind{TopoHier, TopoTransitStub, TopoUSBackbone} {
		s := setup
		s.Topology = topo
		reps, err := s.runAlgorithms(cfg, algos)
		if err != nil {
			return nil, fmt.Errorf("robustness %s: %w", topo, err)
		}
		res.Rows = append(res.Rows, RobustnessRow{Topology: topo, Cells: aggregate(reps, names)})
	}
	return res, nil
}

// String renders one row per substrate, cells as pQoS (R).
func (r *RobustnessResult) String() string {
	header := append([]string{"topology"}, r.Names...)
	tb := metrics.NewTable(header...)
	for _, row := range r.Rows {
		cells := []string{string(row.Topology)}
		for _, n := range r.Names {
			cells = append(cells, row.Cells[n].String())
		}
		tb.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString("Topology robustness: same scenario across substrates (the paper's\n")
	b.WriteString("\"similar results on real topologies\" cross-check, pQoS (R))\n")
	b.WriteString(tb.String())
	return b.String()
}
