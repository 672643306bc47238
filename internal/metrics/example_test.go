package metrics_test

import (
	"fmt"

	"dvecap/internal/metrics"
)

// ExampleSummary shows replication-style aggregation.
func ExampleSummary() {
	var s metrics.Summary
	for _, pqos := range []float64{0.94, 0.95, 0.93, 0.96, 0.94} {
		s.Add(pqos)
	}
	fmt.Println(s.String())
	// Output: 0.9440 ± 0.0100 (n=5)
}

// ExampleCDF shows the Figure-4-style delay distribution query.
func ExampleCDF() {
	delays := []float64{120, 180, 240, 260, 320, 410}
	cdf := metrics.NewCDF(delays)
	fmt.Printf("P(delay <= 250ms) = %.2f\n", cdf.At(250))
	// Output: P(delay <= 250ms) = 0.50
}

// ExampleTable shows the harness's table rendering.
func ExampleTable() {
	tb := metrics.NewTable("algorithm", "pQoS")
	tb.AddRow("GreZ-GreC", "0.94")
	tb.AddRow("RanZ-VirC", "0.61")
	fmt.Print(tb.String())
	// Output:
	// algorithm  pQoS
	// ---------  ----
	// GreZ-GreC  0.94
	// RanZ-VirC  0.61
}
