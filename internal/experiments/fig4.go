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

// Fig4Options tunes the delay-CDF experiment.
type Fig4Options struct {
	// Scenario defaults to the paper's 30s-160z-2000c-1000cp.
	Scenario string
	// Steps is the number of CDF sample points per series (default 25).
	Steps int
}

// Fig4Series is one algorithm's CDF curve.
type Fig4Series struct {
	Algorithm string
	Points    []metrics.Point
	// PAtBound is the CDF value at the delay bound = the algorithm's pQoS.
	PAtBound float64
}

// Fig4Result reproduces "Figure 4. Cumulative distribution of delays":
// the CDF of every client's effective delay to its target server, per
// algorithm, pooled over all replications.
type Fig4Result struct {
	Scenario string
	BoundMs  float64
	Series   []Fig4Series
}

// Fig4 runs the experiment.
func Fig4(setup Setup, opt Fig4Options) (*Fig4Result, error) {
	setup = setup.withDefaults()
	if opt.Scenario == "" {
		opt.Scenario = "30s-160z-2000c-1000cp"
	}
	if opt.Steps <= 0 {
		opt.Steps = 25
	}
	cfg, err := dve.ParseScenario(dve.DefaultConfig(), opt.Scenario)
	if err != nil {
		return nil, err
	}
	algos := core.PaperAlgorithms()
	names := algorithmNames(algos)

	type delays map[string][]float64
	reps, err := runner.Run(setup.Seed, setup.Reps, func(rep int, rng *xrand.RNG) (delays, error) {
		world, err := setup.buildWorld(rng.Split(), cfg)
		if err != nil {
			return nil, err
		}
		truth := world.Problem()
		sopt := scratchOpts()
		out := make(delays, len(algos))
		for _, tp := range algos {
			a, err := tp.Solve(rng.Split(), truth, sopt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tp.Name, err)
			}
			out[tp.Name] = core.Evaluate(truth, a).Delays
		}
		return out, nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}

	res := &Fig4Result{Scenario: opt.Scenario, BoundMs: cfg.DelayBoundMs}
	for _, name := range names {
		var pooled []float64
		for _, rm := range reps {
			pooled = append(pooled, rm[name]...)
		}
		cdf := metrics.NewCDF(pooled)
		res.Series = append(res.Series, Fig4Series{
			Algorithm: name,
			// The paper's Figure 4 axis runs from the delay bound (250 ms)
			// to the max RTT (500 ms).
			Points:   cdf.Series(cfg.DelayBoundMs, maxRTTMs, opt.Steps),
			PAtBound: cdf.At(cfg.DelayBoundMs),
		})
	}
	return res, nil
}

// String renders an ASCII chart followed by the labelled two-column series.
func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: CDF of client→target delays (%s, D = %.0f ms)\n\n", r.Scenario, r.BoundMs)
	plot := &metrics.Plot{XLabel: "delay (ms)", Width: 64, Height: 16}
	for _, s := range r.Series {
		plot.AddSeries(s.Algorithm, s.Points)
	}
	b.WriteString(plot.String())
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\n# %s (CDF at bound = %.3f)\n", s.Algorithm, s.PAtBound)
		b.WriteString(metrics.FormatSeries(s.Points))
	}
	return b.String()
}
