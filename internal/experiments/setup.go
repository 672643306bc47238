// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Table 1 (configurations), Figure 4 (delay CDF), Figure 5
// (correlation sweep), Figure 6 (distribution types), Table 3 (dynamics)
// and Table 4 (imperfect input), plus ablations of the design choices
// DESIGN.md calls out and the §4.2 runtime comparison. Each experiment is a
// function from a Setup to a typed result with a String() rendering that
// prints the same rows/series the paper reports.
package experiments

import (
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/metrics"
	"dvecap/internal/runner"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

// TopologyKind selects the network substrate.
type TopologyKind string

const (
	// TopoHier is the paper's BRITE-style hierarchical topology: 20 AS
	// (Barabási–Albert) × 25 Waxman routers = 500 nodes.
	TopoHier TopologyKind = "hier"
	// TopoUSBackbone is the embedded 25-PoP US backbone (the paper's
	// real-topology cross-check).
	TopoUSBackbone TopologyKind = "usbackbone"
	// TopoTransitStub is a GT-ITM-style 500-node transit-stub topology,
	// an extra robustness check beyond the paper's two substrates.
	TopoTransitStub TopologyKind = "transitstub"
)

// Setup bundles the parameters shared by all experiments.
type Setup struct {
	// Seed drives every random choice; same seed ⇒ same outputs.
	Seed uint64
	// Reps is the number of replications averaged per data point. The
	// paper uses 50.
	Reps int
	// Topology selects the substrate (default TopoHier).
	Topology TopologyKind
}

const (
	// maxRTTMs scales every delay matrix; the paper uses 500 ms.
	maxRTTMs = 500
	// interServerFactor discounts server-server delays; the paper uses 0.5.
	interServerFactor = 0.5
)

// DefaultSetup mirrors the paper: 50 replications on the hierarchical
// topology.
func DefaultSetup() Setup {
	return Setup{
		Seed:     2006,
		Reps:     50,
		Topology: TopoHier,
	}
}

func (s Setup) withDefaults() Setup {
	if s.Reps <= 0 {
		s.Reps = 50
	}
	if s.Topology == "" {
		s.Topology = TopoHier
	}
	return s
}

// buildTopology generates a fresh topology + delay matrix for one
// replication.
func (s Setup) buildTopology(rng *xrand.RNG) (*topology.Graph, *topology.DelayMatrix, error) {
	var g *topology.Graph
	var err error
	switch s.Topology {
	case TopoHier:
		g, err = topology.Hier(rng, topology.DefaultHier())
		if err != nil {
			return nil, nil, err
		}
	case TopoUSBackbone:
		g = topology.USBackbone()
	case TopoTransitStub:
		g, err = topology.TransitStub(rng, topology.DefaultTransitStub())
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("experiments: unknown topology kind %q", s.Topology)
	}
	dm, err := topology.NewDelayMatrix(g, maxRTTMs, interServerFactor)
	if err != nil {
		return nil, nil, err
	}
	return g, dm, nil
}

// buildWorld generates a fresh world for one replication.
func (s Setup) buildWorld(rng *xrand.RNG, cfg dve.Config) (*dve.World, error) {
	g, dm, err := s.buildTopology(rng.Split())
	if err != nil {
		return nil, err
	}
	return dve.BuildWorld(rng.Split(), cfg, g, dm)
}

// Cell is one table cell: mean pQoS with mean utilisation in brackets,
// exactly the paper's "pQoS (R)" format.
type Cell struct {
	PQoS metrics.Summary
	R    metrics.Summary
}

// String renders "0.94 (0.66)".
func (c Cell) String() string {
	return fmt.Sprintf("%.2f (%.2f)", c.PQoS.Mean(), c.R.Mean())
}

// solveOpts is the overflow policy experiments run with: the paper assumes
// feasible instances but random capacity splits can strand a large zone, so
// experiments spill rather than abort (violations remain visible through
// MaxLoadRatio).
var solveOpts = core.Options{Overflow: core.SpillLargestResidual}

// scratchOpts returns solveOpts with a fresh reusable workspace attached.
// Each replication goroutine calls this once and reuses the workspace
// across every Solve in the replication, so the greedy phases' cost
// matrices and preference lists are allocated once per rep, not once per
// algorithm invocation.
func scratchOpts() core.Options {
	opt := solveOpts
	opt.Scratch = core.NewWorkspace()
	return opt
}

// repMetrics holds one replication's evaluation per algorithm.
type repMetrics map[string]core.Metrics

// runAlgorithms evaluates the given algorithms on reps fresh worlds in
// parallel and returns per-replication metrics keyed by algorithm name.
func (s Setup) runAlgorithms(cfg dve.Config, algos []core.TwoPhase) ([]repMetrics, error) {
	return runner.Run(s.Seed, s.Reps, func(rep int, rng *xrand.RNG) (repMetrics, error) {
		world, err := s.buildWorld(rng.Split(), cfg)
		if err != nil {
			return nil, err
		}
		truth := world.Problem()
		sopt := scratchOpts()
		out := make(repMetrics, len(algos))
		for _, tp := range algos {
			a, err := tp.Solve(rng.Split(), truth, sopt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tp.Name, err)
			}
			out[tp.Name] = core.Evaluate(truth, a)
		}
		return out, nil
	})
}

// aggregate folds per-replication metrics into cells per algorithm.
func aggregate(reps []repMetrics, names []string) map[string]*Cell {
	out := make(map[string]*Cell, len(names))
	for _, n := range names {
		out[n] = &Cell{}
	}
	for _, rm := range reps {
		for _, n := range names {
			m, ok := rm[n]
			if !ok {
				continue
			}
			out[n].PQoS.Add(m.PQoS)
			out[n].R.Add(m.Utilization)
		}
	}
	return out
}

// algorithmNames extracts names preserving order.
func algorithmNames(algos []core.TwoPhase) []string {
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names
}
