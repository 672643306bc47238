package experiments

import (
	"fmt"
	"strings"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/metrics"
	"dvecap/internal/runner"
	"dvecap/internal/sim"
	"dvecap/internal/xrand"
)

// StalenessOptions tunes the reassignment-period sweep (an extension: the
// paper's Table 3 shows one churn burst; this sweeps how often §3.4's
// re-execution must run under *continuous* churn, and what each run costs
// in migrations).
type StalenessOptions struct {
	// Periods lists reassignment intervals in simulated seconds
	// (default {30, 60, 120, 300, 600}).
	Periods []float64
	// HorizonSec is the simulated duration per run (default 1800).
	HorizonSec float64
	// Scenario defaults to 20s-80z-1000c-500cp.
	Scenario string
}

// StalenessPoint is one period's aggregate quality.
type StalenessPoint struct {
	PeriodSec float64
	// MeanPQoS averages pQoS over all samples (pre- and post-reassign),
	// the time-averaged user experience.
	MeanPQoS metrics.Summary
	// WorstPQoS averages each run's minimum pre-reassign pQoS — how bad
	// things get just before the algorithm re-runs.
	WorstPQoS metrics.Summary
	// ContactMovesPerReassign averages the per-client disruption of each
	// re-execution.
	ContactMovesPerReassign metrics.Summary
}

// StalenessResult is the sweep outcome.
type StalenessResult struct {
	Points []StalenessPoint
}

// Staleness runs the sweep with GreZ-GreC.
func Staleness(setup Setup, opt StalenessOptions) (*StalenessResult, error) {
	setup = setup.withDefaults()
	if opt.Periods == nil {
		opt.Periods = []float64{30, 60, 120, 300, 600}
	}
	if opt.HorizonSec == 0 {
		opt.HorizonSec = 1800
	}
	if opt.Scenario == "" {
		opt.Scenario = "20s-80z-1000c-500cp"
	}
	cfg, err := dve.ParseScenario(dve.DefaultConfig(), opt.Scenario)
	if err != nil {
		return nil, err
	}
	// 2 joins/s, 600 s sessions and 0.005 moves/client/s: roughly
	// 20%/minute population turnover on the default 1000-client world.
	churn := sim.ChurnConfig{
		JoinRate:          2,
		MeanSessionSec:    600,
		MoveRatePerClient: 0.005,
	}

	res := &StalenessResult{}
	for _, period := range opt.Periods {
		churnP := churn
		churnP.ReassignEverySec = period
		type out struct {
			mean, worst, moves float64
		}
		reps, err := runner.Run(setup.Seed, setup.Reps, func(rep int, rng *xrand.RNG) (out, error) {
			world, err := setup.buildWorld(rng.Split(), cfg)
			if err != nil {
				return out{}, err
			}
			eng := sim.NewEngine()
			driver, err := sim.NewDriver(eng, world, core.GreZGreC, solveOpts, churnP, rng.Split())
			if err != nil {
				return out{}, err
			}
			driver.Start()
			eng.Run(opt.HorizonSec)
			var o out
			var samples, preCount int
			worst := 1.0
			for _, s := range driver.Samples() {
				o.mean += s.PQoS
				samples++
				if s.Event == "pre-reassign" {
					preCount++
					if s.PQoS < worst {
						worst = s.PQoS
					}
				}
			}
			if samples > 0 {
				o.mean /= float64(samples)
			}
			if preCount > 0 {
				o.worst = worst
			} else {
				o.worst = o.mean
			}
			o.moves = driver.MeanContactMovesPerReassign()
			return o, nil
		})
		if err != nil {
			return nil, fmt.Errorf("staleness period %v: %w", period, err)
		}
		pt := StalenessPoint{PeriodSec: period}
		for _, r := range reps {
			pt.MeanPQoS.Add(r.mean)
			pt.WorstPQoS.Add(r.worst)
			pt.ContactMovesPerReassign.Add(r.moves)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// String renders the sweep.
func (r *StalenessResult) String() string {
	tb := metrics.NewTable("reassign every", "mean pQoS", "worst pre-reassign pQoS", "contact moves/reassign")
	for _, pt := range r.Points {
		tb.AddRow(
			fmt.Sprintf("%.0fs", pt.PeriodSec),
			fmt.Sprintf("%.3f", pt.MeanPQoS.Mean()),
			fmt.Sprintf("%.3f", pt.WorstPQoS.Mean()),
			fmt.Sprintf("%.1f", pt.ContactMovesPerReassign.Mean()))
	}
	var b strings.Builder
	b.WriteString("Staleness: reassignment period under continuous churn (extension of Table 3)\n")
	b.WriteString(tb.String())
	return b.String()
}
