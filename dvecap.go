package dvecap

import (
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/repair"
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
	// sizes when non-zero (ignored if Notation is set). Negative and
	// non-finite values are rejected.
	Servers, Zones, Clients int
	TotalCapacityMbps       float64
	// DelayBoundMs overrides the interactivity bound when non-zero; negative
	// and non-finite values are rejected.
	DelayBoundMs float64
	// ClusteredPhysical / ClusteredVirtual enable the hot-node / hot-zone
	// client distributions.
	ClusteredPhysical bool
	ClusteredVirtual  bool
	// UseUSBackbone swaps the generated hierarchical topology for the
	// embedded 25-PoP US backbone.
	UseUSBackbone bool
}

// Scenario is the paper's §4 world generator: a concrete, reproducible DVE
// instance — topology, servers, zones and a client population placed in both
// worlds — that Cluster turns into the same builder real deployments fill by
// hand. Solve it in one shot (Assign is sugar for Cluster().Solve) or keep
// it repaired under churn (Cluster().Open, driven by ID).
type Scenario struct {
	world  *dve.World
	rng    *xrand.RNG
	params ScenarioParams
	// cluster caches Cluster() for the current population; Churn drops it.
	cluster *Cluster
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
	// Zero means "paper default" below; anything else that is not a usable
	// size must not be mistaken for it.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Servers", float64(p.Servers)}, {"Zones", float64(p.Zones)}, {"Clients", float64(p.Clients)},
		{"TotalCapacityMbps", p.TotalCapacityMbps}, {"DelayBoundMs", p.DelayBoundMs},
	} {
		if !repair.FiniteNonNeg(f.v) {
			return nil, fmt.Errorf("dvecap: ScenarioParams.%s = %v, want finite >= 0 (0 takes the paper default)", f.name, f.v)
		}
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
		if !(oc.corr >= 0 && oc.corr <= 1) { // NaN fails both
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
	p.Servers, p.Zones, p.Clients = cfg.Servers, cfg.Zones, cfg.Clients
	p.TotalCapacityMbps, p.DelayBoundMs = cfg.TotalCapacityMbps, cfg.DelayBoundMs
	return &Scenario{world: world, rng: rng, params: p}, nil
}

// Params returns the parameters the scenario was built from with every
// default resolved: the sizes, capacity and delay bound are the ones in
// effect, whether they came from Notation, an override or the paper's
// defaults (Clients is the initial population; NumClients follows Churn).
func (s *Scenario) Params() ScenarioParams { return s.params }

// Algorithms returns the names accepted by Assign and Cluster.Solve, in
// the paper's order plus extensions.
func Algorithms() []string {
	return core.AlgorithmNames()
}

// Cluster returns the scenario's current population as a Cluster, built
// through the public builder calls a real deployment would make: servers
// "s0"…, zones "z0"… and clients "c0"… in world order, the inter-server
// matrix via SetServerRTTs and each client's ground-truth delays as an
// RTTRow. The cluster is cached until the next Churn (it is the one Assign
// solves — add to it and Assign sees the addition); after a Churn, call
// Cluster again for the new population.
func (s *Scenario) Cluster() *Cluster {
	if s.cluster == nil {
		c, err := denseCluster(s.world.Problem())
		if err != nil {
			// The generator validated the world; the builder refusing it is
			// a bug in one of the two.
			panic(fmt.Sprintf("dvecap: scenario world rejected by the cluster builder: %v", err))
		}
		s.cluster = c
	}
	return s.cluster
}

// denseCluster replays a dense problem through the builder under synthetic
// IDs: servers "s0"…, zones "z0"…, clients "c0"….
func denseCluster(p *core.Problem) (*Cluster, error) {
	c := NewCluster(p.D)
	for i, capacity := range p.ServerCaps {
		if err := c.AddServer(fmt.Sprintf("s%d", i), ServerSpec{CapacityMbps: capacity}); err != nil {
			return nil, err
		}
	}
	if err := c.SetServerRTTs(p.SS); err != nil {
		return nil, err
	}
	zones := make([]string, p.NumZones)
	for z := range zones {
		zones[z] = fmt.Sprintf("z%d", z)
		if err := c.AddZone(zones[z]); err != nil {
			return nil, err
		}
	}
	for j, z := range p.ClientZones {
		if err := c.AddClient(fmt.Sprintf("c%d", j), ClientSpec{
			Zone: zones[z], BandwidthMbps: p.ClientRT[j], RTTRow: p.CS[j],
		}); err != nil {
			return nil, err
		}
	}
	if p.Adjacency != nil {
		for _, e := range p.Adjacency.Edges() {
			if err := c.SetZoneAdjacency(zones[e.A], zones[e.B], e.W); err != nil {
				return nil, err
			}
		}
	}
	return c, c.SetTrafficWeight(p.TrafficWeight)
}

// Assign runs the named two-phase algorithm ("RanZ-VirC", "RanZ-GreC",
// "GreZ-VirC", "GreZ-GreC", or the extension "DynZ-GreC") on the scenario's
// current state, drawing from the scenario's own random stream.
func (s *Scenario) Assign(algorithm string) (*Result, error) {
	return s.Cluster().Solve(algorithm, withRNG(s.rng))
}

// AssignWithEstimationError runs the algorithm against delays perturbed by
// a multiplicative error factor e (estimates uniform in [d/e, d·e], the
// King/IDMaps model) and evaluates the outcome against the true delays.
func (s *Scenario) AssignWithEstimationError(algorithm string, e float64) (*Result, error) {
	return s.Cluster().Solve(algorithm, withRNG(s.rng), WithEstimationError(e))
}

// Churn applies joins, leaves and zone moves drawn from the scenario's
// placement models (the paper's dynamics protocol), after which Assign and
// Cluster reflect the new population. A session opened from an earlier
// Cluster() keeps its own population: drive it by ID.
func (s *Scenario) Churn(join, leave, move int) error {
	s.cluster = nil
	return s.world.Churn(s.rng.Split(), join, leave, move)
}

// NumClients returns the current population.
func (s *Scenario) NumClients() int { return s.world.NumClients() }
