package dve

import (
	"fmt"

	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

// World is a concrete DVE instance: a topology with delays, placed servers
// with capacities, and clients with a physical node and a virtual zone.
// Worlds are built by BuildWorld and mutated only through the dynamics
// operations (Join, Leave, Move), which preserve the placement models.
type World struct {
	Cfg    Config
	Topo   *topology.Graph
	Delays *topology.DelayMatrix

	// ServerNodes[i] is the topology node hosting server i; ServerCaps[i]
	// its bandwidth capacity in Mbps.
	ServerNodes []int
	ServerCaps  []float64

	// ClientNodes[j] / ClientZones[j] locate client j physically and
	// virtually.
	ClientNodes []int
	ClientZones []int

	// HotNodes/HotZones are the clustered-distribution hot sets (nil when
	// the corresponding distribution is Uniform). They persist so dynamics
	// keep drawing from the same distribution the world was built with.
	HotNodes map[int]bool
	HotZones map[int]bool

	// regionZones[r] lists the virtual zones preferred by clients whose
	// physical node belongs to region (AS) r — the correlation model.
	regionZones [][]int
	regions     int
}

// BuildWorld places servers and clients over the given topology according
// to cfg. The delay matrix must cover the same topology.
func BuildWorld(rng *xrand.RNG, cfg Config, topo *topology.Graph, delays *topology.DelayMatrix) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if topo.N() == 0 {
		return nil, fmt.Errorf("dve: empty topology")
	}
	if delays.N() != topo.N() {
		return nil, fmt.Errorf("dve: delay matrix covers %d nodes, topology has %d", delays.N(), topo.N())
	}
	if cfg.Servers > topo.N() {
		return nil, fmt.Errorf("dve: %d servers exceed %d topology nodes", cfg.Servers, topo.N())
	}
	w := &World{Cfg: cfg, Topo: topo, Delays: delays}

	// Servers: distinct random nodes; capacities: random split of the total
	// with the per-server floor (the paper's min 10 Mbps).
	w.ServerNodes = rng.SampleWithout(topo.N(), cfg.Servers)
	w.ServerCaps = rng.Simplex(cfg.Servers, cfg.TotalCapacityMbps, cfg.MinCapacityMbps)

	// Hot sets for clustered distributions.
	if cfg.PhysicalDist == Clustered {
		w.HotNodes = pickHot(rng, topo.N(), cfg.HotFraction)
	}
	if cfg.VirtualDist == Clustered {
		w.HotZones = pickHot(rng, cfg.Zones, cfg.HotFraction)
	}

	// Correlation structure: region r (an AS of the topology) prefers a
	// contiguous block of zones. Every region gets at least one zone.
	w.regions = topo.ASCount()
	if w.regions < 1 {
		w.regions = 1
	}
	w.regionZones = splitZonesIntoBlocks(cfg.Zones, w.regions)

	w.ClientNodes = make([]int, 0, cfg.Clients)
	w.ClientZones = make([]int, 0, cfg.Clients)
	for j := 0; j < cfg.Clients; j++ {
		node, zone := w.placeClient(rng)
		w.ClientNodes = append(w.ClientNodes, node)
		w.ClientZones = append(w.ClientZones, zone)
	}
	return w, nil
}

// pickHot selects round(frac×n) items (at least 1) as hot.
func pickHot(rng *xrand.RNG, n int, frac float64) map[int]bool {
	k := int(frac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	hot := make(map[int]bool, k)
	for _, v := range rng.SampleWithout(n, k) {
		hot[v] = true
	}
	return hot
}

// splitZonesIntoBlocks partitions zones 0..n-1 into r contiguous blocks;
// when n < r, block i holds zone i mod n, so every region has a preference.
func splitZonesIntoBlocks(n, r int) [][]int {
	out := make([][]int, r)
	if n >= r {
		for i := 0; i < r; i++ {
			lo, hi := i*n/r, (i+1)*n/r
			for z := lo; z < hi; z++ {
				out[i] = append(out[i], z)
			}
		}
		return out
	}
	for i := 0; i < r; i++ {
		out[i] = []int{i % n}
	}
	return out
}

// placeClient draws a physical node and a virtual zone per the paper's
// placement models: node from the (possibly clustered) physical
// distribution; then with probability δ the zone comes from the node's
// region's preferred block, otherwise from the (possibly clustered) global
// zone distribution. Within either choice, hot-zone weights apply.
func (w *World) placeClient(rng *xrand.RNG) (node, zone int) {
	node = w.drawNode(rng)
	zone = w.drawZoneFor(rng, node)
	return node, zone
}

func (w *World) drawNode(rng *xrand.RNG) int {
	n := w.Topo.N()
	if w.HotNodes == nil {
		return rng.IntN(n)
	}
	// Weighted draw by rejection: hot nodes are ClusterWeight× likelier.
	// Rejection keeps this O(1)-ish without materialising a weight vector.
	for {
		cand := rng.IntN(n)
		if w.HotNodes[cand] {
			return cand
		}
		if rng.Bool(1 / w.Cfg.ClusterWeight) {
			return cand
		}
	}
}

func (w *World) drawZoneFor(rng *xrand.RNG, node int) int {
	if rng.Bool(w.Cfg.Correlation) {
		region := w.Topo.Nodes[node].AS
		if region < 0 || region >= len(w.regionZones) {
			region = 0
		}
		block := w.regionZones[region]
		return w.drawZoneWeighted(rng, block)
	}
	all := w.allZones()
	return w.drawZoneWeighted(rng, all)
}

// allZones returns the identity zone list; cached per call site need not be
// optimised — zone counts are small (tens to hundreds).
func (w *World) allZones() []int {
	zs := make([]int, w.Cfg.Zones)
	for i := range zs {
		zs[i] = i
	}
	return zs
}

// drawZoneWeighted draws from candidates with hot-zone weighting.
func (w *World) drawZoneWeighted(rng *xrand.RNG, candidates []int) int {
	if w.HotZones == nil {
		return candidates[rng.IntN(len(candidates))]
	}
	for {
		cand := candidates[rng.IntN(len(candidates))]
		if w.HotZones[cand] {
			return cand
		}
		if rng.Bool(1 / w.Cfg.ClusterWeight) {
			return cand
		}
	}
}

// NumClients returns the current client count (dynamics change it).
func (w *World) NumClients() int { return len(w.ClientNodes) }

// ZonePopulations returns the number of clients currently in each zone.
func (w *World) ZonePopulations() []int {
	pop := make([]int, w.Cfg.Zones)
	for _, z := range w.ClientZones {
		pop[z]++
	}
	return pop
}

// Clone deep-copies the world (topology and delay matrix are shared, they
// are immutable by convention).
func (w *World) Clone() *World {
	c := *w
	c.ServerNodes = append([]int(nil), w.ServerNodes...)
	c.ServerCaps = append([]float64(nil), w.ServerCaps...)
	c.ClientNodes = append([]int(nil), w.ClientNodes...)
	c.ClientZones = append([]int(nil), w.ClientZones...)
	if w.HotNodes != nil {
		c.HotNodes = make(map[int]bool, len(w.HotNodes))
		for k, v := range w.HotNodes {
			c.HotNodes[k] = v
		}
	}
	if w.HotZones != nil {
		c.HotZones = make(map[int]bool, len(w.HotZones))
		for k, v := range w.HotZones {
			c.HotZones[k] = v
		}
	}
	return &c
}

// SetClientZones replaces every client's zone in one call — the fast path
// for mobility layers that recompute all memberships per tick.
func (w *World) SetClientZones(zones []int) error {
	if len(zones) != len(w.ClientNodes) {
		return fmt.Errorf("dve: %d zones for %d clients", len(zones), len(w.ClientNodes))
	}
	for j, z := range zones {
		if z < 0 || z >= w.Cfg.Zones {
			return fmt.Errorf("dve: client %d zone %d outside [0,%d)", j, z, w.Cfg.Zones)
		}
	}
	copy(w.ClientZones, zones)
	return nil
}
