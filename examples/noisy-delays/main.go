// Noisy delays: assignment under imperfect measurement, the paper's
// Table 4. A real deployment estimates client-server delays with tools
// like King (error factor ~1.2) or IDMaps (~2.0) rather than measuring
// them exactly; this example quantifies how much quality each algorithm
// loses when it optimises against such estimates. Results average several
// independent worlds, as the paper averages 50 simulation runs.
//
//	go run ./examples/noisy-delays
package main

import (
	"fmt"
	"log"

	"dvecap"
)

const worlds = 8

func cell(name string, e float64) (pqos, r float64) {
	for seed := uint64(1); seed <= worlds; seed++ {
		scn, err := dvecap.NewScenario(dvecap.ScenarioParams{Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		var res *dvecap.Result
		if e == 1.0 {
			res, err = scn.Assign(name)
		} else {
			res, err = scn.AssignWithEstimationError(name, e)
		}
		if err != nil {
			log.Fatal(err)
		}
		pqos += res.PQoS
		r += res.Utilization
	}
	return pqos / worlds, r / worlds
}

func main() {
	algorithms := []string{"RanZ-VirC", "RanZ-GreC", "GreZ-VirC", "GreZ-GreC"}
	factors := []struct {
		e    float64
		name string
	}{
		{1.0, "perfect"},
		{1.2, "King"},
		{2.0, "IDMaps"},
	}

	fmt.Printf("%-12s", "algorithm")
	for _, f := range factors {
		fmt.Printf("  %14s", fmt.Sprintf("e=%.1f (%s)", f.e, f.name))
	}
	fmt.Printf("   (mean of %d worlds)\n", worlds)

	for _, name := range algorithms {
		fmt.Printf("%-12s", name)
		for _, f := range factors {
			p, r := cell(name, f.e)
			fmt.Printf("  %6.3f (%.2f)", p, r)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("Cells are pQoS (R), evaluated against TRUE delays after optimising")
	fmt.Println("against noisy estimates. Delay-aware initial assignment stays far")
	fmt.Println("ahead of the random baselines even at e=2 — the paper's Table 4.")
}
