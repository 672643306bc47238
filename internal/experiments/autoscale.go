package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dvecap/internal/autoscale"
	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/metrics"
	"dvecap/internal/runner"
	"dvecap/internal/sim"
	"dvecap/internal/xrand"
)

// AutoscaleOptions tunes the autoscaling comparison (DESIGN.md §14): a
// diurnal + flash-crowd arrival trace drives three provisioning modes on
// identical worlds and churn seeds — a static fleet (every server active
// for the whole run, the paper's fixed deployment), the clairvoyant
// oracle (re-provisions to the demand it can see each cycle, zero lag),
// and the hysteresis reconciler (watermarks + windows + cooldowns over
// the warm-spare pool). The question the experiment answers: how much of
// the oracle's server-hour saving does a causal controller keep, and
// what does it cost in pQoS and topology churn?
type AutoscaleOptions struct {
	// JSONOut, when set, additionally receives the result as a
	// BENCH_autoscale.json-shaped document.
	JSONOut io.Writer
}

const (
	// autoscaleHorizonSec is the simulated duration per run: two diurnal
	// periods, flash crowd on the second peak.
	autoscaleHorizonSec = 6000
	// autoscaleScenario is a fleet small enough that one server is a
	// meaningful provisioning quantum.
	autoscaleScenario = "8s-16z-40c-220cp"
	// autoscaleSpareServers is the warm pool: the last 5 world servers
	// start drained.
	autoscaleSpareServers = 5
	// autoscaleEverySec is the reconcile cadence.
	autoscaleEverySec = 60
)

// autoscalePolicy is the reconciler configuration: the acceptance policy
// asserted in internal/sim's TestAutoscaleTracksOracle.
var autoscalePolicy = autoscale.Config{
	UtilHigh:          0.75,
	UtilLow:           0.45,
	HighWindowTicks:   2,
	LowWindowTicks:    2,
	UpCooldownTicks:   1,
	DownCooldownTicks: 1,
}

// AutoscaleMode is one provisioning mode's aggregate outcome.
type AutoscaleMode struct {
	Name string
	// ServerHours is the provisioning bill: the integral of the active
	// (non-drained) server count over the run.
	ServerHours metrics.Summary
	// TimeAvgPQoS integrates pQoS over the periodic samples
	// (piecewise-constant), so flash-crowd dips weigh by their duration.
	TimeAvgPQoS metrics.Summary
	// EventsPerHour is the topology-verb rate (uncordons + drains +
	// retires) — the disruption the controller buys its savings with.
	EventsPerHour metrics.Summary
}

// AutoscaleResult is the three-mode comparison outcome.
type AutoscaleResult struct {
	Static     AutoscaleMode
	Oracle     AutoscaleMode
	Reconciler AutoscaleMode
	HorizonSec float64
}

// Autoscale runs the comparison with GreZ-GreC.
func Autoscale(setup Setup, opt AutoscaleOptions) (*AutoscaleResult, error) {
	setup = setup.withDefaults()
	cfg, err := dve.ParseScenario(dve.DefaultConfig(), autoscaleScenario)
	if err != nil {
		return nil, err
	}
	// The diurnal + flash-crowd arrival trace every mode replays.
	trace := &sim.ArrivalTrace{
		BaseRate:         0.5,
		DiurnalAmplitude: 0.8,
		DiurnalPeriodSec: 3000,
		Flashes:          []sim.Flash{{StartSec: 4200, DurationSec: 300, Multiplier: 1.4}},
	}

	type out struct {
		hours  [3]float64
		pqos   [3]float64
		events [3]int
	}
	const (
		modeStatic = iota
		modeOracle
		modeReconciler
	)
	reps, err := runner.Run(setup.Seed, setup.Reps, func(rep int, rng *xrand.RNG) (out, error) {
		var o out
		worldSeed, churnSeed := rng.Split().Seed(), rng.Split().Seed()
		for mode := 0; mode < 3; mode++ {
			world, err := setup.buildWorld(xrand.New(worldSeed), cfg)
			if err != nil {
				return out{}, err
			}
			churn := sim.ChurnConfig{
				Repair:            true,
				Arrivals:          trace,
				MeanSessionSec:    300,
				MoveRatePerClient: 0.002,
				ReassignEverySec:  60,
				SampleEverySec:    30,
			}
			if mode != modeStatic {
				churn.Autoscale = &sim.AutoscaleConfig{
					Policy:       autoscalePolicy,
					SpareServers: autoscaleSpareServers,
					EverySec:     autoscaleEverySec,
					Oracle:       mode == modeOracle,
				}
			}
			eng := sim.NewEngine()
			driver, err := sim.NewDriver(eng, world, core.GreZGreC, solveOpts, churn, xrand.New(churnSeed))
			if err != nil {
				return out{}, err
			}
			driver.Start()
			eng.Run(autoscaleHorizonSec)
			if errs := driver.Errors(); len(errs) > 0 {
				return out{}, fmt.Errorf("rep %d mode %d: %v", rep, mode, errs[0])
			}
			o.hours[mode] = driver.ServerHours()
			o.pqos[mode] = sampleTimeAvgPQoS(driver.Samples())
			if mode == modeOracle {
				o.events[mode] = driver.OracleMoves()
			} else {
				o.events[mode] = len(driver.AutoscaleDecisions())
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AutoscaleResult{
		Static:     AutoscaleMode{Name: "static fleet"},
		Oracle:     AutoscaleMode{Name: "clairvoyant oracle"},
		Reconciler: AutoscaleMode{Name: "hysteresis reconciler"},
		HorizonSec: autoscaleHorizonSec,
	}
	hours := autoscaleHorizonSec / 3600.0
	for _, r := range reps {
		for mode, m := range []*AutoscaleMode{&res.Static, &res.Oracle, &res.Reconciler} {
			m.ServerHours.Add(r.hours[mode])
			m.TimeAvgPQoS.Add(r.pqos[mode])
			m.EventsPerHour.Add(float64(r.events[mode]) / hours)
		}
	}
	if opt.JSONOut != nil {
		if err := res.WriteJSON(opt.JSONOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sampleTimeAvgPQoS integrates pQoS over the sample sequence,
// piecewise-constant between samples.
func sampleTimeAvgPQoS(samples []sim.Sample) float64 {
	if len(samples) < 2 {
		if len(samples) == 1 {
			return samples[0].PQoS
		}
		return 0
	}
	area, prev := 0.0, samples[0]
	for _, s := range samples[1:] {
		area += prev.PQoS * (s.Time - prev.Time)
		prev = s
	}
	return area / (prev.Time - samples[0].Time)
}

// String renders the comparison.
func (r *AutoscaleResult) String() string {
	tb := metrics.NewTable("mode", "server-hours/run", "time-avg pQoS", "topology events/hour")
	for _, m := range []*AutoscaleMode{&r.Static, &r.Oracle, &r.Reconciler} {
		tb.AddRow(
			m.Name,
			fmt.Sprintf("%.2f", m.ServerHours.Mean()),
			fmt.Sprintf("%.4f", m.TimeAvgPQoS.Mean()),
			fmt.Sprintf("%.1f", m.EventsPerHour.Mean()))
	}
	var b strings.Builder
	b.WriteString("Autoscale: static fleet vs clairvoyant oracle vs hysteresis reconciler (DESIGN.md §14)\n")
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "reconciler vs oracle: %.2fx server-hours, %+.4f pQoS\n",
		r.Reconciler.ServerHours.Mean()/r.Oracle.ServerHours.Mean(),
		r.Reconciler.TimeAvgPQoS.Mean()-r.Oracle.TimeAvgPQoS.Mean())
	fmt.Fprintf(&b, "reconciler vs static: %.2fx server-hours, %+.4f pQoS\n",
		r.Reconciler.ServerHours.Mean()/r.Static.ServerHours.Mean(),
		r.Reconciler.TimeAvgPQoS.Mean()-r.Static.TimeAvgPQoS.Mean())
	return b.String()
}

// WriteJSON emits the BENCH_autoscale.json document shape.
func (r *AutoscaleResult) WriteJSON(w io.Writer) error {
	type mode struct {
		ServerHours   float64 `json:"server_hours_per_run"`
		TimeAvgPQoS   float64 `json:"time_avg_pqos"`
		EventsPerHour float64 `json:"topology_events_per_hour"`
	}
	render := func(m *AutoscaleMode) mode {
		return mode{
			ServerHours:   m.ServerHours.Mean(),
			TimeAvgPQoS:   m.TimeAvgPQoS.Mean(),
			EventsPerHour: m.EventsPerHour.Mean(),
		}
	}
	doc := struct {
		Description     string  `json:"description"`
		HorizonSec      float64 `json:"horizon_sec"`
		Static          mode    `json:"static_fleet"`
		Oracle          mode    `json:"clairvoyant_oracle"`
		Reconciler      mode    `json:"hysteresis_reconciler"`
		HoursVsOracle   float64 `json:"reconciler_server_hours_vs_oracle"`
		PQoSDeltaOracle float64 `json:"reconciler_pqos_delta_vs_oracle"`
	}{
		Description:     "Autoscaling control plane (DESIGN.md §14) on the diurnal + flash-crowd arrival trace: static fleet vs clairvoyant oracle provisioner vs hysteresis reconciler, identical worlds and churn seeds per replication.",
		HorizonSec:      r.HorizonSec,
		Static:          render(&r.Static),
		Oracle:          render(&r.Oracle),
		Reconciler:      render(&r.Reconciler),
		HoursVsOracle:   r.Reconciler.ServerHours.Mean() / r.Oracle.ServerHours.Mean(),
		PQoSDeltaOracle: r.Reconciler.TimeAvgPQoS.Mean() - r.Oracle.TimeAvgPQoS.Mean(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
