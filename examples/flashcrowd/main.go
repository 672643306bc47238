// Flash crowd: a whole crowd pours into one zone of a live session and is
// admitted as a single JoinBatch event — memberships first, then ONE seeded
// repair scan over the hot zone, instead of one repair pass per client
// (BenchmarkBatchJoin measures the gap at 100k clients).
//
//	go run ./examples/flashcrowd
package main

import (
	"fmt"
	"log"

	"dvecap"
)

func main() {
	const crowd = 120
	c := dvecap.NewCluster(120)
	must(c.AddServer("fra", dvecap.ServerSpec{CapacityMbps: 900, RTTs: map[string]float64{"nyc": 82}}))
	must(c.AddServer("nyc", dvecap.ServerSpec{CapacityMbps: 900}))
	must(c.AddZone("plaza"))
	must(c.AddZone("arena")) // the event venue the crowd floods into
	for x := 0; x < 40; x++ {
		must(c.AddClient(fmt.Sprintf("res%03d", x), dvecap.ClientSpec{
			Zone: "plaza", BandwidthMbps: 2,
			RTTs: map[string]float64{"fra": float64(15 + x%60), "nyc": float64(95 - x%60)},
		}))
	}
	sess, err := c.Open("GreZ-GreC")
	must(err)

	joins := make([]dvecap.ClientJoin, crowd)
	for x := range joins {
		joins[x] = dvecap.ClientJoin{
			ID: fmt.Sprintf("fan%03d", x),
			Spec: dvecap.ClientSpec{
				Zone: "arena", BandwidthMbps: 2,
				RTTs: map[string]float64{"fra": float64(20 + x%70), "nyc": float64(90 - x%70)},
			},
		}
	}
	must(sess.JoinBatch(joins))
	st := sess.Stats()
	fmt.Printf("JoinBatch admitted %d fans into one zone as ONE repair event:\n", crowd)
	fmt.Printf("  pQoS %.3f, %d joins counted, %d zone handoffs, %d contact switches\n",
		sess.PQoS(), st.Joins, st.ZoneHandoffs, st.ContactSwitches)
	host, _ := sess.ZoneHost("arena")
	fmt.Printf("  arena hosted by %s after the crowd repair pass\n", host)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
