// Command capsim regenerates the tables and figures of "Efficient
// Client-to-Server Assignments for Distributed Virtual Environments"
// (Ta & Zhou, IPDPS 2006).
//
// Usage:
//
//	capsim -exp table1 -reps 50 -lp
//	capsim -exp fig4
//	capsim -exp fig5
//	capsim -exp fig6
//	capsim -exp table3
//	capsim -exp table4
//	capsim -exp ablation
//	capsim -exp repair -reps 5 -metrics-log ticks.prom
//	capsim -exp autoscale -reps 20 -autoscale-json BENCH_autoscale.json
//	capsim -exp traffic -reps 10 -traffic-json BENCH_traffic.json
//	capsim -exp runtime -lp
//	capsim -exp all -reps 20
//
// -exp repair compares incremental churn repair against periodic full
// re-solves (DESIGN.md §7); with -metrics-log it also streams one
// Prometheus-text snapshot of the repair planner's telemetry per simulated
// tick (DESIGN.md §12) — a scrape series over virtual time.
//
// -exp autoscale runs the capacity control loop (DESIGN.md §14) on a
// diurnal + flash-crowd arrival trace: a static fleet, the clairvoyant
// oracle provisioner and the hysteresis reconciler on identical worlds
// and churn seeds — server-hours, time-averaged pQoS and topology-event
// rate per mode; -autoscale-json records the comparison as
// BENCH_autoscale.json.
//
// -exp traffic runs the inter-server traffic comparison (DESIGN.md §15):
// a mobility-driven workload — avatars on a zone grid with hotspot
// attraction and correlated group movement — feeds observed zone
// crossings into the repair planner as churn plus interaction-graph
// weights, and delay-only (the paper's objective) is compared against
// traffic-aware assignment on identical seeds: measured cross-server
// broadcast + handoff traffic, pQoS and zone handoffs per arm;
// -traffic-json records the comparison as BENCH_traffic.json, and
// -traffic-weight overrides the traffic arm's λ.
//
// Every run is deterministic in -seed. -topology usbackbone swaps the
// BRITE-style hierarchical topology for the embedded US backbone, and
// -topology transitstub for a GT-ITM-style transit-stub graph.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dvecap/internal/experiments"
	"dvecap/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|fig4|fig5|fig6|table3|table4|ablation|baselines|repair|autoscale|traffic|runtime|all")
		seed     = flag.Uint64("seed", 2006, "base random seed")
		reps     = flag.Int("reps", 50, "replications per data point (paper: 50)")
		topo     = flag.String("topology", "hier", "topology substrate: hier|transitstub|usbackbone")
		lp       = flag.Bool("lp", false, "include the exact branch-and-bound baseline (small configs only)")
		lpReps   = flag.Int("lpreps", 0, "replications for the exact baseline (0 = min(reps,10))")
		deadline = flag.Duration("lpdeadline", 60*time.Second, "per-solve deadline for the exact baseline")
		metrics  = flag.String("metrics-log", "", "with -exp repair: stream one Prometheus snapshot per simulated tick of the first replication's repair driver to this file")
		autoJSON = flag.String("autoscale-json", "", "with -exp autoscale: also write the comparison as a BENCH_autoscale.json document to this file")
		trafJSON = flag.String("traffic-json", "", "with -exp traffic: also write the comparison as a BENCH_traffic.json document to this file")
		trafW    = flag.Float64("traffic-weight", 0, "with -exp traffic: override the traffic-aware arm's λ (0 = the experiment default)")
	)
	flag.Parse()

	var repairOpts experiments.RepairOptions
	if *metrics != "" {
		mf, merr := os.Create(*metrics)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "capsim:", merr)
			os.Exit(1)
		}
		defer mf.Close()
		repairOpts.Telemetry = telemetry.NewRegistry()
		repairOpts.MetricsLog = mf
	}

	setup := experiments.DefaultSetup()
	setup.Seed = *seed
	setup.Reps = *reps
	setup.Topology = experiments.TopologyKind(*topo)

	run := func(name string) error {
		start := time.Now()
		var out fmt.Stringer
		var err error
		switch name {
		case "table1":
			out, err = experiments.Table1(setup, experiments.Table1Options{
				IncludeLP: *lp, LPReps: *lpReps, LPDeadline: *deadline,
			})
		case "fig4":
			out, err = experiments.Fig4(setup, experiments.Fig4Options{})
		case "fig5":
			out, err = experiments.Fig5(setup, experiments.Fig5Options{})
		case "fig6":
			out, err = experiments.Fig6(setup, experiments.Fig6Options{})
		case "table3":
			out, err = experiments.Table3(setup, experiments.Table3Options{})
		case "table4":
			out, err = experiments.Table4(setup, experiments.Table4Options{})
		case "ablation":
			out, err = experiments.Ablation(setup, experiments.AblationOptions{})
		case "baselines":
			out, err = experiments.Baselines(setup, experiments.BaselinesOptions{})
		case "staleness":
			out, err = experiments.Staleness(setup, experiments.StalenessOptions{})
		case "robustness":
			out, err = experiments.Robustness(setup, experiments.RobustnessOptions{})
		case "flowcheck":
			out, err = experiments.FlowCheck(setup, experiments.FlowCheckOptions{})
		case "repair":
			out, err = experiments.Repair(setup, repairOpts)
		case "autoscale":
			var autoOpts experiments.AutoscaleOptions
			if *autoJSON != "" {
				af, aerr := os.Create(*autoJSON)
				if aerr != nil {
					return aerr
				}
				defer af.Close()
				autoOpts.JSONOut = af
			}
			out, err = experiments.Autoscale(setup, autoOpts)
		case "traffic":
			trafOpts := experiments.TrafficOptions{Weight: *trafW}
			if *trafJSON != "" {
				tf, terr := os.Create(*trafJSON)
				if terr != nil {
					return terr
				}
				defer tf.Close()
				trafOpts.JSONOut = tf
			}
			out, err = experiments.Traffic(setup, trafOpts)
		case "runtime":
			out, err = experiments.Runtime(setup, experiments.RuntimeOptions{IncludeLP: *lp, LPDeadline: *deadline})
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(out.String())
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig4", "fig5", "fig6", "table3", "table4", "ablation", "baselines", "staleness", "robustness", "flowcheck", "runtime"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintln(os.Stderr, "capsim:", err)
			os.Exit(1)
		}
	}
}
