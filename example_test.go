package dvecap_test

import (
	"fmt"

	"dvecap"
)

// ExampleScenario_Assign is the minimal solve: build a reproducible
// scenario (the paper's table notation fixes the sizes) and run the
// paper's best two-phase algorithm once.
func ExampleScenario_Assign() {
	scn, err := dvecap.NewScenario(dvecap.ScenarioParams{
		Seed:     1,
		Notation: "5s-15z-200c-100cp", // 5 servers, 15 zones, 200 clients, 100 Mbps
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := scn.Assign("GreZ-GreC")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%s: %d/%d clients within the bound (pQoS %.3f)\n",
		res.Algorithm, res.WithQoS, res.Clients, res.PQoS)
	// Output: GreZ-GreC: 182/200 clients within the bound (pQoS 0.910)
}

// ExampleScenario_Cluster shows the incremental loop on a generated world:
// the scenario hands over an ordinary Cluster, Open solves it once, and the
// session keeps the solution repaired in O(affected) per event as clients
// join, leave and move by ID — with a full re-solve only on demand
// (Resolve) or when the drift guard trips.
func ExampleScenario_Cluster() {
	scn, err := dvecap.NewScenario(dvecap.ScenarioParams{
		Seed:     7,
		Notation: "5s-15z-200c-100cp",
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sess, err := scn.Cluster().Open("GreZ-GreC", dvecap.WithDriftGuard(0.02))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Churn: every event is repaired incrementally, no full re-solve. The
	// generated servers are "s0"…, zones "z0"…, clients "c0"….
	err = sess.Join("alice", dvecap.ClientSpec{
		Zone:          "z3",
		BandwidthMbps: 0.3,
		RTTs:          map[string]float64{"s0": 40, "s1": 95, "s2": 180, "s3": 260, "s4": 120},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := sess.Move("c17", "z3"); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := sess.Leave("c42"); err != nil {
		fmt.Println("error:", err)
		return
	}
	// Re-anchor with one explicit full two-phase re-solve.
	if err := sess.Resolve(); err != nil {
		fmt.Println("error:", err)
		return
	}
	alice, err := sess.Client("alice")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	st := sess.Stats()
	fmt.Printf("%d clients after churn, pQoS %.3f\n", sess.NumClients(), sess.PQoS())
	fmt.Printf("alice: zone %s, within the bound: %t\n", alice.Zone, alice.QoS)
	fmt.Printf("events: %d joins, %d moves, %d leaves; full solves: %d\n",
		st.Joins, st.Moves, st.Leaves, st.FullSolves)
	// Output:
	// 200 clients after churn, pQoS 0.905
	// alice: zone z3, within the bound: true
	// events: 1 joins, 1 moves, 1 leaves; full solves: 2
}
