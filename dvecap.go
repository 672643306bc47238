package dvecap

import (
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

// ScenarioParams configures a simulated DVE scenario built on a generated
// Internet-like topology. Zero values take the paper's defaults
// (20 servers, 80 zones, 1000 clients, 500 Mbps, D = 250 ms, δ = 0.5, 500
// node hierarchical topology with 500 ms max RTT and 50% inter-server
// delay discount).
type ScenarioParams struct {
	// Seed makes the scenario reproducible; two scenarios with the same
	// params and seed are identical.
	Seed uint64
	// Notation optionally overrides sizes with the paper's table notation,
	// e.g. "10s-30z-400c-200cp".
	Notation string
	// Servers, Zones, Clients and TotalCapacityMbps override individual
	// sizes when non-zero (ignored if Notation is set).
	Servers, Zones, Clients int
	TotalCapacityMbps       float64
	// DelayBoundMs overrides the interactivity bound when non-zero.
	DelayBoundMs float64
	// ClusteredPhysical / ClusteredVirtual enable the hot-node / hot-zone
	// client distributions.
	ClusteredPhysical bool
	ClusteredVirtual  bool
	// UseUSBackbone swaps the generated hierarchical topology for the
	// embedded 25-PoP US backbone.
	UseUSBackbone bool
}

// Scenario is a concrete, reproducible DVE instance ready for assignment.
// Its solve surfaces (Assign, AssignWithEstimationError, StartSession) are
// thin adapters over the Cluster engine — the same machinery that serves
// real, bring-your-own-infrastructure deployments — applied to the
// generated world.
type Scenario struct {
	world *dve.World
	rng   *xrand.RNG
}

// NewScenario builds a scenario: topology, delay matrix, servers with
// capacities, and clients placed in both worlds. Of the options, only
// WithCorrelation and WithSeed apply (the rest configure solves); the
// physical↔virtual correlation δ is the paper default 0.5 unless
// WithCorrelation says otherwise.
func NewScenario(p ScenarioParams, opts ...Option) (*Scenario, error) {
	oc := resolveOptions(opts)
	if oc.seedSet {
		p.Seed = oc.seed
	}
	cfg := dve.DefaultConfig()
	if p.Notation != "" {
		var err error
		cfg, err = dve.ParseScenario(cfg, p.Notation)
		if err != nil {
			return nil, err
		}
	} else {
		if p.Servers > 0 {
			cfg.Servers = p.Servers
		}
		if p.Zones > 0 {
			cfg.Zones = p.Zones
		}
		if p.Clients > 0 {
			cfg.Clients = p.Clients
		}
		if p.TotalCapacityMbps > 0 {
			cfg.TotalCapacityMbps = p.TotalCapacityMbps
		}
	}
	if p.DelayBoundMs > 0 {
		cfg.DelayBoundMs = p.DelayBoundMs
	}
	if oc.corrSet {
		if oc.corr < 0 || oc.corr > 1 {
			return nil, fmt.Errorf("dvecap: correlation %v outside [0,1]", oc.corr)
		}
		cfg.Correlation = oc.corr
	}
	if p.ClusteredPhysical {
		cfg.PhysicalDist = dve.Clustered
	}
	if p.ClusteredVirtual {
		cfg.VirtualDist = dve.Clustered
	}
	rng := xrand.New(p.Seed)
	var g *topology.Graph
	var err error
	if p.UseUSBackbone {
		g = topology.USBackbone()
	} else {
		g, err = topology.Hier(rng.Split(), topology.DefaultHier())
		if err != nil {
			return nil, err
		}
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		return nil, err
	}
	world, err := dve.BuildWorld(rng.Split(), cfg, g, dm)
	if err != nil {
		return nil, err
	}
	return &Scenario{world: world, rng: rng}, nil
}

// Algorithms returns the names accepted by Assign and Cluster.Solve, in
// the paper's order plus extensions.
func Algorithms() []string {
	return core.AlgorithmNames()
}

// clusterView wraps the scenario's current population as a Cluster, so
// the scenario's solve surfaces run through the same engine as real
// deployments. The view snapshots the world — rebuild after churn.
func (s *Scenario) clusterView() *Cluster {
	return clusterFromProblem(s.world.Problem())
}

// Assign runs the named two-phase algorithm ("RanZ-VirC", "RanZ-GreC",
// "GreZ-VirC", "GreZ-GreC", or the extension "DynZ-GreC") on the scenario's
// current state.
func (s *Scenario) Assign(algorithm string) (*Result, error) {
	return s.clusterView().Solve(algorithm, withRNG(s.rng))
}

// AssignWithEstimationError runs the algorithm against delays perturbed by
// a multiplicative error factor e (estimates uniform in [d/e, d·e], the
// King/IDMaps model) and evaluates the outcome against the true delays.
func (s *Scenario) AssignWithEstimationError(algorithm string, e float64) (*Result, error) {
	return s.clusterView().Solve(algorithm, withRNG(s.rng), WithEstimationError(e))
}

// Churn applies joins, leaves and zone moves to the scenario (the paper's
// dynamics protocol), after which Assign reflects the new population.
func (s *Scenario) Churn(join, leave, move int) error {
	return s.world.Churn(s.rng.Split(), join, leave, move)
}

// NumClients returns the current population.
func (s *Scenario) NumClients() int { return s.world.NumClients() }

// Config returns the scenario's resolved configuration.
func (s *Scenario) Config() dve.Config { return s.world.Cfg }

// World exposes the underlying world for advanced callers (the cmd tools
// and benchmarks); treat it as read-only unless you own the scenario.
func (s *Scenario) World() *dve.World { return s.world }
