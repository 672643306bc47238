package experiments

import (
	"fmt"
	"io"
	"strings"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/metrics"
	"dvecap/internal/runner"
	"dvecap/internal/sim"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// RepairOptions tunes the repair-vs-full-resolve comparison (an extension
// of Table 3: the paper re-executes the whole two-phase algorithm as the
// DVE evolves; the repair subsystem re-optimises only what churn touched.
// This experiment runs both modes on identical worlds and churn seeds and
// compares time-averaged quality against disruption volume).
type RepairOptions struct {
	// HorizonSec is the simulated duration per run (default 1800).
	HorizonSec float64
	// Scenario defaults to 20s-80z-1000c-500cp.
	Scenario string
	// Telemetry and MetricsLog, when set, are attached to the FIRST
	// replication's repair-mode driver only (replications run in parallel;
	// one driver keeps the gauge stream coherent): live dvecap_sim_* and
	// repair-planner series update, and MetricsLog receives one
	// Prometheus-text snapshot per simulated tick. Observation only — the
	// comparison's results are identical with or without them.
	Telemetry  *telemetry.Registry
	MetricsLog io.Writer
}

// RepairMode is one mode's aggregate outcome.
type RepairMode struct {
	Name string
	// MeanPQoS is the time-averaged quality over the periodic tick samples.
	MeanPQoS metrics.Summary
	// ZoneHandoffs is the total number of zone rehostings per run.
	ZoneHandoffs metrics.Summary
	// FullSolves counts full two-phase executions per run.
	FullSolves metrics.Summary
}

// RepairResult is the comparison outcome.
type RepairResult struct {
	Full   RepairMode
	Repair RepairMode
}

// Repair runs the comparison with GreZ-GreC.
func Repair(setup Setup, opt RepairOptions) (*RepairResult, error) {
	setup = setup.withDefaults()
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
	// Equilibrium-population turnover (JoinRate × MeanSessionSec ≈ the
	// scenario's client count), 0.005 moves/client/s, reassign/fallback
	// every 60 s, a quality sample every 10 s.
	churn := sim.ChurnConfig{
		JoinRate:          float64(cfg.Clients) / 600,
		MeanSessionSec:    600,
		MoveRatePerClient: 0.005,
		ReassignEverySec:  60,
		SampleEverySec:    10,
	}

	type out struct {
		pqos     [2]float64
		handoffs [2]int
		solves   [2]int
	}
	reps, err := runner.Run(setup.Seed, setup.Reps, func(rep int, rng *xrand.RNG) (out, error) {
		var o out
		worldSeed, churnSeed := rng.Split().Seed(), rng.Split().Seed()
		for mode := 0; mode < 2; mode++ {
			// Both modes see the identical world and churn trajectory: the
			// world RNG and driver RNG restart from the same seeds per mode.
			world, err := setup.buildWorld(xrand.New(worldSeed), cfg)
			if err != nil {
				return out{}, err
			}
			churnM := churn
			churnM.Repair = mode == 1
			if rep == 0 && mode == 1 {
				churnM.Telemetry = opt.Telemetry
				churnM.MetricsLog = opt.MetricsLog
			}
			eng := sim.NewEngine()
			driver, err := sim.NewDriver(eng, world, core.GreZGreC, solveOpts, churnM, xrand.New(churnSeed))
			if err != nil {
				return out{}, err
			}
			driver.Start()
			eng.Run(opt.HorizonSec)
			if errs := driver.Errors(); len(errs) > 0 {
				return out{}, fmt.Errorf("rep %d mode %d: %v", rep, mode, errs[0])
			}
			var sum float64
			n := 0
			for _, s := range driver.Samples() {
				if s.Event == "tick" {
					sum += s.PQoS
					n++
				}
			}
			if n > 0 {
				o.pqos[mode] = sum / float64(n)
			}
			o.handoffs[mode] = driver.TotalZoneHandoffs()
			// Full solves during the run (the initial solve both modes share
			// is not counted): every reassign tick in full mode, the drift
			// guard's firings in repair mode.
			if st, ok := driver.RepairStats(); ok {
				o.solves[mode] = st.FullSolves
			} else {
				o.solves[mode] = int(opt.HorizonSec / churn.ReassignEverySec)
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	res := &RepairResult{
		Full:   RepairMode{Name: "full re-solve"},
		Repair: RepairMode{Name: "incremental repair"},
	}
	for _, r := range reps {
		res.Full.MeanPQoS.Add(r.pqos[0])
		res.Full.ZoneHandoffs.Add(float64(r.handoffs[0]))
		res.Full.FullSolves.Add(float64(r.solves[0]))
		res.Repair.MeanPQoS.Add(r.pqos[1])
		res.Repair.ZoneHandoffs.Add(float64(r.handoffs[1]))
		res.Repair.FullSolves.Add(float64(r.solves[1]))
	}
	return res, nil
}

// String renders the comparison.
func (r *RepairResult) String() string {
	tb := metrics.NewTable("mode", "time-avg pQoS", "zone handoffs/run", "full solves/run")
	for _, m := range []*RepairMode{&r.Full, &r.Repair} {
		tb.AddRow(
			m.Name,
			fmt.Sprintf("%.3f", m.MeanPQoS.Mean()),
			fmt.Sprintf("%.1f", m.ZoneHandoffs.Mean()),
			fmt.Sprintf("%.1f", m.FullSolves.Mean()))
	}
	var b strings.Builder
	b.WriteString("Repair: incremental churn repair vs periodic full re-solve (DESIGN.md §7)\n")
	b.WriteString(tb.String())
	return b.String()
}
