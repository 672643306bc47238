package experiments

import (
	"fmt"
	"strings"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/metrics"
)

// Fig5Options tunes the correlation sweep.
type Fig5Options struct {
	// Correlations lists the δ values; default {0, 0.2, 0.4, 0.6, 0.8, 1}.
	Correlations []float64
	// Scenario defaults to the paper's default 20s-80z-1000c-500cp.
	Scenario string
}

// fig5DelayBoundMs is the delay bound of the sweep: the paper sets
// D = 200 ms in Fig. 5.
const fig5DelayBoundMs = 200

// Fig5Point is one (δ, algorithm) measurement.
type Fig5Point struct {
	Correlation float64
	Cells       map[string]*Cell
}

// Fig5Result reproduces "Figure 5. Impacts of correlations": pQoS (a) and
// resource utilisation (b) as the physical↔virtual correlation δ grows.
type Fig5Result struct {
	Points []Fig5Point
	Names  []string
	Bound  float64
}

// Fig5 runs the sweep.
func Fig5(setup Setup, opt Fig5Options) (*Fig5Result, error) {
	setup = setup.withDefaults()
	if opt.Correlations == nil {
		opt.Correlations = []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	}
	if opt.Scenario == "" {
		opt.Scenario = "20s-80z-1000c-500cp"
	}
	base, err := dve.ParseScenario(dve.DefaultConfig(), opt.Scenario)
	if err != nil {
		return nil, err
	}
	base.DelayBoundMs = fig5DelayBoundMs
	algos := core.PaperAlgorithms()
	names := algorithmNames(algos)
	res := &Fig5Result{Names: names, Bound: fig5DelayBoundMs}
	for _, delta := range opt.Correlations {
		cfg := base
		cfg.Correlation = delta
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("fig5 δ=%v: %w", delta, err)
		}
		reps, err := setup.runAlgorithms(cfg, algos)
		if err != nil {
			return nil, fmt.Errorf("fig5 δ=%v: %w", delta, err)
		}
		res.Points = append(res.Points, Fig5Point{
			Correlation: delta,
			Cells:       aggregate(reps, names),
		})
	}
	return res, nil
}

// String renders the two panels as tables over δ, with an ASCII chart of
// panel (a).
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5(a): pQoS vs correlation (D = %.0f ms)\n", r.Bound)
	b.WriteString(r.panel(func(c *Cell) float64 { return c.PQoS.Mean() }))
	b.WriteString("\n")
	plot := &metrics.Plot{XLabel: "correlation", Width: 60, Height: 14}
	for _, n := range r.Names {
		var pts []metrics.Point
		for _, pt := range r.Points {
			pts = append(pts, metrics.Point{X: pt.Correlation, Y: pt.Cells[n].PQoS.Mean()})
		}
		plot.AddSeries(n, pts)
	}
	b.WriteString(plot.String())
	fmt.Fprintf(&b, "\nFigure 5(b): resource utilisation vs correlation\n")
	b.WriteString(r.panel(func(c *Cell) float64 { return c.R.Mean() }))
	return b.String()
}

func (r *Fig5Result) panel(pick func(*Cell) float64) string {
	tb := metrics.NewTable(append([]string{"correlation"}, r.Names...)...)
	for _, pt := range r.Points {
		cells := []string{fmt.Sprintf("%.1f", pt.Correlation)}
		for _, n := range r.Names {
			cells = append(cells, fmt.Sprintf("%.3f", pick(pt.Cells[n])))
		}
		tb.AddRow(cells...)
	}
	return tb.String()
}
