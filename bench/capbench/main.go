// Command capbench is the repository's benchmark: one command that builds
// every input from a seed, runs a workload through the public surfaces of
// the director and the library, verifies the outputs and prints every
// metric by name.
//
//	bash bench/run.sh -seed 1                       # all four workloads, end-to-end metrics
//	bash bench/run.sh -workload churn_mem -trace 1  # traced run: per-layer metrics + span file
//	bash bench/run.sh -selfcheck 5                  # two sets of five runs, compared against the bounds
//
// The last line of standard output is one JSON object {"correct",
// "attempted", "failed", "metrics"} for the (last) workload run. Any
// verification mismatch makes "correct" false and the exit code 1. See
// ../README.md for the metrics, the workloads and the design rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dvecap/bench"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: churn_mem, churn_durable, hotspot_moves, library_100k or all")
		seed      = flag.Uint64("seed", 1, "seed of the population and the operation stream")
		seconds   = flag.Float64("seconds", bench.RunSeconds, "nominal length of the measured phase; call counts are this times a fixed rate")
		trace     = flag.Int("trace", 0, "1 = traced run (per-layer metrics, trace-<workload>.jsonl), 0 = end-to-end metrics")
		size      = flag.Float64("size", 1, "population scale (tests use 0.02)")
		workDir   = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for data dirs, span files and env.json")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of N runs of this binary and compare them against the metric bounds")
		contract  = flag.Bool("contract", false, "print BENCHMARK.json as the package's metric tables define it, and exit")
	)
	flag.Parse()
	if *contract {
		doc, err := json.MarshalIndent(bench.Contract(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(doc))
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 || *size <= 0 {
		fatal(fmt.Errorf("-seconds and -size must be positive"))
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	opt := bench.Options{Seconds: *seconds, Size: *size, WorkDir: *workDir}

	if *selfcheck > 0 {
		ok, err := bench.Selfcheck(os.Stdout, *selfcheck, *workload, *seed, opt)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	todo, err := bench.Select(*workload)
	if err != nil {
		fatal(err)
	}
	if err := bench.WriteEnv(filepath.Join(*workDir, "env.json"), *workDir); err != nil {
		fatal(err)
	}
	correct := true
	for _, w := range todo {
		run := bench.Run
		if *trace != 0 {
			run = bench.RunTraced
		}
		res, err := run(w, *seed, opt)
		if err != nil {
			fatal(err)
		}
		for _, name := range res.Order {
			m := res.Metrics[name]
			fmt.Printf("%s/%s %.6g %s\n", res.Workload, name, m.Value, m.Unit)
		}
		for _, n := range res.Notes {
			fmt.Println("#", n)
		}
		line, err := json.Marshal(struct {
			Correct   bool                    `json:"correct"`
			Attempted int                     `json:"attempted"`
			Failed    int                     `json:"failed"`
			Metrics   map[string]bench.Metric `json:"metrics"`
		}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		correct = correct && res.Failed == 0
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capbench:", err)
	os.Exit(2)
}
