package topology_test

import (
	"fmt"

	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

// ExampleHier generates the paper's 500-node topology and scales its
// delays so the worst round trip is 500 ms.
func ExampleHier() {
	g, err := topology.Hier(xrand.New(1), topology.DefaultHier())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d nodes, %d ASes, max RTT %.0f ms\n", g.N(), g.ASCount(), dm.MaxRTT)
	// Output: 500 nodes, 20 ASes, max RTT 500 ms
}

// ExampleUSBackbone shows the embedded real topology.
func ExampleUSBackbone() {
	g := topology.USBackbone()
	fmt.Printf("%d PoPs, connected: %v\n", g.N(), g.Connected())
	// Output: 25 PoPs, connected: true
}
