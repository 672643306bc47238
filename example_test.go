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

// ExampleScenario_StartSession shows the incremental loop: solve once,
// then keep the solution repaired in O(affected) per event as clients
// join, leave and move — with a full re-solve only on demand (Resolve) or
// when the drift guard trips.
func ExampleScenario_StartSession() {
	scn, err := dvecap.NewScenario(dvecap.ScenarioParams{
		Seed:     7,
		Notation: "5s-15z-200c-100cp",
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sess, err := scn.StartSession("GreZ-GreC", 0.02)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Churn: every event is repaired incrementally, no full re-solve.
	if err := sess.Join(20); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := sess.Move(10); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := sess.Leave(5); err != nil {
		fmt.Println("error:", err)
		return
	}
	// Re-anchor with one explicit full two-phase re-solve.
	if err := sess.Resolve(); err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := sess.Result()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	st := sess.Stats()
	fmt.Printf("%d clients after churn, pQoS %.3f\n", sess.NumClients(), res.PQoS)
	fmt.Printf("events: %d joins, %d moves, %d leaves; full solves: %d\n",
		st.Joins, st.Moves, st.Leaves, st.FullSolves)
	// Output:
	// 215 clients after churn, pQoS 0.921
	// events: 20 joins, 10 moves, 5 leaves; full solves: 2
}
