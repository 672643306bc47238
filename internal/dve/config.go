// Package dve models the distributed virtual environment of the paper's
// simulation study: geographically distributed servers with bandwidth
// capacities, a zone-partitioned virtual world, and clients that exist at a
// physical network node and in a virtual zone. It generates worlds under
// the paper's client distribution models (uniform/clustered in both worlds,
// physical↔virtual correlation δ), computes per-client bandwidth
// requirements with the quadratic client-server model of Pellegrino &
// Dovrolis, supports the join/leave/move dynamics of §4.2, and converts a
// world into the core.Problem snapshot the assignment algorithms consume.
package dve

import (
	"fmt"
	"regexp"
	"strconv"
)

// Distribution selects how clients spread over a dimension of the world.
type Distribution int

const (
	// Uniform spreads clients evenly (every node/zone equally likely).
	Uniform Distribution = iota
	// Clustered concentrates clients: a HotFraction of nodes/zones receives
	// ClusterWeight× the selection weight of the rest, reproducing the
	// paper's "hot zones have 10 times more clients".
	Clustered
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Clustered:
		return "clustered"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// DistributionType is the paper's Table 2 encoding of the four combined
// physical-world / virtual-world clustering scenarios.
type DistributionType int

const (
	// TypeUniform has no clustering in either world (Table 2, type 0).
	TypeUniform DistributionType = iota
	// TypePhysicalClusters clusters the physical world only (type 1).
	TypePhysicalClusters
	// TypeVirtualClusters clusters the virtual world only (type 2).
	TypeVirtualClusters
	// TypeBothClusters clusters both worlds (type 3).
	TypeBothClusters
)

// Apply sets the two distribution fields of cfg accordingly.
func (t DistributionType) Apply(cfg *Config) {
	cfg.PhysicalDist, cfg.VirtualDist = Uniform, Uniform
	if t == TypePhysicalClusters || t == TypeBothClusters {
		cfg.PhysicalDist = Clustered
	}
	if t == TypeVirtualClusters || t == TypeBothClusters {
		cfg.VirtualDist = Clustered
	}
}

func (t DistributionType) String() string {
	switch t {
	case TypeUniform:
		return "PW:uniform/VW:uniform"
	case TypePhysicalClusters:
		return "PW:clustered/VW:uniform"
	case TypeVirtualClusters:
		return "PW:uniform/VW:clustered"
	case TypeBothClusters:
		return "PW:clustered/VW:clustered"
	default:
		return fmt.Sprintf("DistributionType(%d)", int(t))
	}
}

// Config collects every parameter of a DVE scenario. DefaultConfig returns
// the paper's §4.1 defaults; the tables' scenario notation
// ("20s-80z-1000c-500cp") is read by ParseScenario.
type Config struct {
	Servers int // number of geographically distributed servers
	Zones   int // number of virtual-world zones
	Clients int // number of clients

	TotalCapacityMbps float64 // summed server bandwidth capacity
	MinCapacityMbps   float64 // per-server capacity floor

	DelayBoundMs float64 // the DVE interactivity bound D

	// Correlation is the paper's δ in [0,1]: the probability that a client
	// joins the zone block preferred by its geographic region instead of a
	// globally drawn zone.
	Correlation float64

	PhysicalDist Distribution
	VirtualDist  Distribution
	// ClusterWeight is how many times likelier a hot node/zone is than a
	// cold one (the paper uses 10×).
	ClusterWeight float64
	// HotFraction is the fraction of nodes/zones designated hot under a
	// Clustered distribution.
	HotFraction float64

	// FrameRate is each client's input rate in messages/second (paper: 25).
	FrameRate float64
	// MessageBytes is the size of one input or update message (paper: 100).
	MessageBytes float64
}

// DefaultConfig returns the paper's default simulation parameters:
// 20 servers, 80 zones, 1000 clients, 500 Mbps total capacity with a
// 10 Mbps floor, D = 250 ms, δ = 0.5, uniform distributions, 25 msg/s of
// 100 bytes.
func DefaultConfig() Config {
	return Config{
		Servers:           20,
		Zones:             80,
		Clients:           1000,
		TotalCapacityMbps: 500,
		MinCapacityMbps:   10,
		DelayBoundMs:      250,
		Correlation:       0.5,
		PhysicalDist:      Uniform,
		VirtualDist:       Uniform,
		ClusterWeight:     10,
		HotFraction:       0.1,
		FrameRate:         25,
		MessageBytes:      100,
	}
}

var scenarioRe = regexp.MustCompile(`^(\d+)s-(\d+)z-(\d+)c-(\d+)cp$`)

// ParseScenario applies the table notation to a copy of base and returns
// it: "5s-15z-200c-100cp" sets Servers=5, Zones=15, Clients=200,
// TotalCapacityMbps=100.
func ParseScenario(base Config, s string) (Config, error) {
	m := scenarioRe.FindStringSubmatch(s)
	if m == nil {
		return Config{}, fmt.Errorf("dve: scenario %q does not match <S>s-<Z>z-<C>c-<CP>cp", s)
	}
	servers, _ := strconv.Atoi(m[1])
	zones, _ := strconv.Atoi(m[2])
	clients, _ := strconv.Atoi(m[3])
	capacity, _ := strconv.Atoi(m[4])
	base.Servers = servers
	base.Zones = zones
	base.Clients = clients
	base.TotalCapacityMbps = float64(capacity)
	return base, base.Validate()
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	switch {
	case c.Servers <= 0:
		return fmt.Errorf("dve: Servers = %d, want > 0", c.Servers)
	case c.Zones <= 0:
		return fmt.Errorf("dve: Zones = %d, want > 0", c.Zones)
	case c.Clients < 0:
		return fmt.Errorf("dve: Clients = %d, want >= 0", c.Clients)
	case c.TotalCapacityMbps <= 0:
		return fmt.Errorf("dve: TotalCapacityMbps = %v, want > 0", c.TotalCapacityMbps)
	case c.MinCapacityMbps < 0:
		return fmt.Errorf("dve: MinCapacityMbps = %v, want >= 0", c.MinCapacityMbps)
	case float64(c.Servers)*c.MinCapacityMbps > c.TotalCapacityMbps:
		return fmt.Errorf("dve: %d servers × %v Mbps floor exceeds total capacity %v",
			c.Servers, c.MinCapacityMbps, c.TotalCapacityMbps)
	case c.DelayBoundMs <= 0:
		return fmt.Errorf("dve: DelayBoundMs = %v, want > 0", c.DelayBoundMs)
	case c.Correlation < 0 || c.Correlation > 1:
		return fmt.Errorf("dve: Correlation = %v, want [0,1]", c.Correlation)
	case c.ClusterWeight < 1:
		return fmt.Errorf("dve: ClusterWeight = %v, want >= 1", c.ClusterWeight)
	case c.HotFraction <= 0 || c.HotFraction > 1:
		return fmt.Errorf("dve: HotFraction = %v, want (0,1]", c.HotFraction)
	case c.FrameRate <= 0:
		return fmt.Errorf("dve: FrameRate = %v, want > 0", c.FrameRate)
	case c.MessageBytes <= 0:
		return fmt.Errorf("dve: MessageBytes = %v, want > 0", c.MessageBytes)
	}
	return nil
}
