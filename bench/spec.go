package bench

// MetricSpec is one metric of the benchmark's contract (BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatches keeps the two in step).
type MetricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median by which it may worsen (end-to-end only)
	Why    string
}

// EndToEnd lists the nine end-to-end metrics. Every workload reports
// every one of them.
var EndToEnd = []MetricSpec{
	{"setup_s", "s", "lower", 0.25, "seed → topology/delay model → system constructed → population preloaded → first full solve; median of the repetitions, at reference speed"},
	{"throughput_ops_s", "1/s", "higher", 0.15, "client-level mutations completed per second of time in the system, median over 20 equal-call-count segments, at reference speed"},
	{"write_p50_ms", "ms", "lower", 0.15, "median latency of one mutating call at the workload's surface: median of the 20 segments' medians, at reference speed"},
	{"read_p50_ms", "ms", "lower", 0.20, "median latency of one read at the workload's surface while the writer is running, same construction"},
	{"solve_p50_ms", "ms", "lower", 0.15, "median of the full two-phase re-executions interleaved through the measured phase, at reference speed"},
	{"recover_s", "s", "lower", 0.20, "process lost → serving the same population; median of at least seven, at reference speed"},
	{"pqos", "fraction", "higher", 0.04, "pQoS at the end of the measured phase, cross-checked against a from-scratch core evaluation"},
	{"handoffs_per_kop", "count", "lower", 0.20, "zone handoffs per 1000 client-level mutations during the measured phase"},
	{"live_heap_mb", "MB", "lower", 0.05, "HeapAlloc after two runtime.GC() at the end of the measured phase"},
}

// RunSeconds is the nominal length of one run's measured phase, the
// -seconds the acceptance gate passes.
const RunSeconds = 20

// Contract renders BENCHMARK.json from the tables above, so the file at the
// repository root is generated, not hand-kept: `capbench -contract`.
func Contract() any {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: RunSeconds}
	for _, w := range Workloads() {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range EndToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range PerLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}
	return doc
}
