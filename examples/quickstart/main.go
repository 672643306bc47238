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
	const delta = 0.5 // physical↔virtual correlation δ (0.5 is also the default)
	scn, err := dvecap.NewScenario(dvecap.ScenarioParams{Seed: 42}, dvecap.WithCorrelation(delta))
	if err != nil {
		log.Fatal(err)
	}
	p := scn.Params() // the paper's defaults, resolved
	fmt.Printf("Scenario %ds-%dz-%dc-%.0fcp: D = %.0f ms, δ = %.1f\n\n",
		p.Servers, p.Zones, p.Clients, p.TotalCapacityMbps, p.DelayBoundMs, delta)

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
