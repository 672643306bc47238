// Quickstart: build the paper's default scenario (20 servers, 80 zones,
// 1000 clients on a 500-node Internet-like topology) and compare all four
// two-phase assignment algorithms on it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dvecap"
)

func main() {
	scn, err := dvecap.NewScenario(dvecap.ScenarioParams{Seed: 42},
		dvecap.WithCorrelation(0.5)) // physical↔virtual correlation δ (0.5 is also the default)
	if err != nil {
		log.Fatal(err)
	}
	cfg := scn.Config()
	fmt.Printf("Scenario %s: D = %.0f ms, δ = %.1f\n\n",
		cfg.Scenario(), cfg.DelayBoundMs, cfg.Correlation)

	fmt.Printf("%-12s %8s %8s %10s\n", "algorithm", "pQoS", "R", "withQoS")
	for _, name := range []string{"RanZ-VirC", "RanZ-GreC", "GreZ-VirC", "GreZ-GreC"} {
		res, err := scn.Assign(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8.3f %8.3f %6d/%d\n",
			name, res.PQoS, res.Utilization, res.WithQoS, res.Clients)
	}

	fmt.Println("\nDelay-aware initial assignment (GreZ-*) is the paper's headline:")
	fmt.Println("it dominates the random baselines, and GreC's forwarding through")
	fmt.Println("well-provisioned inter-server links buys the last few percent.")
}
