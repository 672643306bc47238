package dve

import (
	"math"
	"testing"

	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

// testTopo builds a small hierarchical topology + delays shared by tests.
func testTopo(t *testing.T) (*topology.Graph, *topology.DelayMatrix) {
	t.Helper()
	p := topology.DefaultHier()
	p.ASCount = 5
	p.NodesPerAS = 10
	g, err := topology.Hier(xrand.New(1), p)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return g, dm
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Servers = 5
	cfg.Zones = 20
	cfg.Clients = 200
	cfg.TotalCapacityMbps = 200
	return cfg
}

func TestBuildWorldBasics(t *testing.T) {
	g, dm := testTopo(t)
	w, err := BuildWorld(xrand.New(2), testConfig(), g, dm)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.NumClients() != 200 {
		t.Fatalf("clients = %d", w.NumClients())
	}
	// Server nodes distinct.
	seen := map[int]bool{}
	for _, n := range w.ServerNodes {
		if seen[n] {
			t.Fatal("duplicate server node")
		}
		seen[n] = true
	}
	// Capacity floor + total.
	var total float64
	for _, c := range w.ServerCaps {
		if c < w.Cfg.MinCapacityMbps-1e-9 {
			t.Fatalf("capacity %v below floor", c)
		}
		total += c
	}
	if math.Abs(total-200) > 1e-6 {
		t.Fatalf("total capacity %v, want 200", total)
	}
}

func TestBuildWorldDeterministic(t *testing.T) {
	g, dm := testTopo(t)
	a, _ := BuildWorld(xrand.New(3), testConfig(), g, dm)
	b, _ := BuildWorld(xrand.New(3), testConfig(), g, dm)
	for j := range a.ClientNodes {
		if a.ClientNodes[j] != b.ClientNodes[j] || a.ClientZones[j] != b.ClientZones[j] {
			t.Fatalf("client %d differs across identical builds", j)
		}
	}
}

func TestBuildWorldRejectsBadInput(t *testing.T) {
	g, dm := testTopo(t)
	cfg := testConfig()
	cfg.Servers = 0
	if _, err := BuildWorld(xrand.New(1), cfg, g, dm); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg = testConfig()
	cfg.Servers = g.N() + 1
	if _, err := BuildWorld(xrand.New(1), cfg, g, dm); err == nil {
		t.Fatal("more servers than nodes accepted")
	}
	empty := topology.NewGraph(0, 0)
	if _, err := BuildWorld(xrand.New(1), testConfig(), empty, dm); err == nil {
		t.Fatal("empty topology accepted")
	}
}

func TestClusteredVirtualWorldConcentratesClients(t *testing.T) {
	g, dm := testTopo(t)
	cfg := testConfig()
	cfg.Clients = 2000
	cfg.VirtualDist = Clustered
	cfg.Correlation = 0 // isolate the clustering effect
	w, err := BuildWorld(xrand.New(4), cfg, g, dm)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.HotZones) == 0 {
		t.Fatal("no hot zones designated")
	}
	pop := w.ZonePopulations()
	var hotPop, coldPop, hotN, coldN int
	for z, p := range pop {
		if w.HotZones[z] {
			hotPop += p
			hotN++
		} else {
			coldPop += p
			coldN++
		}
	}
	hotMean := float64(hotPop) / float64(hotN)
	coldMean := float64(coldPop) / float64(coldN)
	// Hot zones are 10× likelier; sampling noise allows some slack.
	if hotMean < 5*coldMean {
		t.Fatalf("hot zones not hot: hot mean %v vs cold mean %v", hotMean, coldMean)
	}
}

func TestClusteredPhysicalWorldConcentratesClients(t *testing.T) {
	g, dm := testTopo(t)
	cfg := testConfig()
	cfg.Clients = 3000
	cfg.PhysicalDist = Clustered
	w, err := BuildWorld(xrand.New(5), cfg, g, dm)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[int]int{}
	for _, n := range w.ClientNodes {
		perNode[n]++
	}
	var hotPop, coldPop int
	hotN := len(w.HotNodes)
	coldN := g.N() - hotN
	for n, c := range perNode {
		if w.HotNodes[n] {
			hotPop += c
		} else {
			coldPop += c
		}
	}
	hotMean := float64(hotPop) / float64(hotN)
	coldMean := float64(coldPop) / float64(coldN)
	if hotMean < 5*coldMean {
		t.Fatalf("hot nodes not hot: %v vs %v", hotMean, coldMean)
	}
}

func TestCorrelationBindsRegionToZoneBlock(t *testing.T) {
	g, dm := testTopo(t)
	cfg := testConfig()
	cfg.Clients = 3000
	cfg.Correlation = 1.0
	w, err := BuildWorld(xrand.New(6), cfg, g, dm)
	if err != nil {
		t.Fatal(err)
	}
	// With δ=1 every client's zone must lie in its region's block.
	for j := range w.ClientNodes {
		region := g.Nodes[w.ClientNodes[j]].AS
		block := w.regionZones[region]
		found := false
		for _, z := range block {
			if z == w.ClientZones[j] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("client %d in zone %d outside region %d block %v",
				j, w.ClientZones[j], region, block)
		}
	}
}

func TestZeroCorrelationIgnoresRegions(t *testing.T) {
	g, dm := testTopo(t)
	cfg := testConfig()
	cfg.Clients = 5000
	cfg.Correlation = 0
	w, err := BuildWorld(xrand.New(7), cfg, g, dm)
	if err != nil {
		t.Fatal(err)
	}
	// Every zone should see traffic (5000 clients over 20 zones).
	for z, p := range w.ZonePopulations() {
		if p == 0 {
			t.Fatalf("zone %d empty despite uniform δ=0 placement", z)
		}
	}
}

func TestSplitZonesIntoBlocks(t *testing.T) {
	blocks := splitZonesIntoBlocks(10, 3)
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	seen := map[int]bool{}
	count := 0
	for _, b := range blocks {
		if len(b) == 0 {
			t.Fatal("empty block")
		}
		for _, z := range b {
			if seen[z] {
				t.Fatalf("zone %d in two blocks", z)
			}
			seen[z] = true
			count++
		}
	}
	if count != 10 {
		t.Fatalf("blocks cover %d zones, want 10", count)
	}
	// Fewer zones than regions: every region still has a preference.
	blocks = splitZonesIntoBlocks(2, 5)
	for i, b := range blocks {
		if len(b) != 1 {
			t.Fatalf("region %d block %v", i, b)
		}
	}
}

func TestWorldCloneIndependence(t *testing.T) {
	g, dm := testTopo(t)
	w, _ := BuildWorld(xrand.New(8), testConfig(), g, dm)
	c := w.Clone()
	c.ClientZones[0] = (c.ClientZones[0] + 1) % c.Cfg.Zones
	c.ServerCaps[0] += 5
	if w.ClientZones[0] == c.ClientZones[0] || w.ServerCaps[0] == c.ServerCaps[0] {
		t.Fatal("Clone aliases parent")
	}
}

func TestProblemConversion(t *testing.T) {
	g, dm := testTopo(t)
	w, _ := BuildWorld(xrand.New(9), testConfig(), g, dm)
	p := w.Problem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumServers() != 5 || p.NumClients() != 200 || p.NumZones != 20 {
		t.Fatalf("problem shape wrong: %d/%d/%d", p.NumServers(), p.NumClients(), p.NumZones)
	}
	// Spot-check delay wiring: CS[j][i] must equal the ground-truth RTT.
	for _, j := range []int{0, 57, 199} {
		for i := 0; i < 5; i++ {
			want := dm.RTT(w.ClientNodes[j], w.ServerNodes[i])
			if p.CS[j][i] != want {
				t.Fatalf("CS[%d][%d] = %v, want %v", j, i, p.CS[j][i], want)
			}
		}
	}
	// SS must be the discounted server-server delay and symmetric.
	for i := 0; i < 5; i++ {
		for l := 0; l < 5; l++ {
			want := dm.ServerRTT(w.ServerNodes[i], w.ServerNodes[l])
			if p.SS[i][l] != want {
				t.Fatalf("SS[%d][%d] = %v, want %v", i, l, p.SS[i][l], want)
			}
		}
	}
}

func TestProblemSnapshotIsolatedFromWorld(t *testing.T) {
	g, dm := testTopo(t)
	w, _ := BuildWorld(xrand.New(10), testConfig(), g, dm)
	p := w.Problem()
	w.ClientZones[0] = (w.ClientZones[0] + 1) % w.Cfg.Zones
	if p.ClientZones[0] == w.ClientZones[0] {
		t.Fatal("problem snapshot aliases world state")
	}
}

func TestNewWorldFromPartsValidates(t *testing.T) {
	g, dm := testTopo(t)
	cfg := testConfig()
	nodes := []int{0, 1, 2, 3, 4}
	caps := []float64{40, 40, 40, 40, 40}
	clientNodes := []int{0, 1, 2}
	clientZones := []int{0, 1, 2}
	w, err := NewWorldFromParts(cfg, g, dm, nodes, caps, clientNodes, clientZones)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumClients() != 3 || w.Cfg.Servers != 5 {
		t.Fatalf("shape: %d clients, %d servers", w.NumClients(), w.Cfg.Servers)
	}
	// Out-of-range zone rejected.
	if _, err := NewWorldFromParts(cfg, g, dm, nodes, caps, []int{0}, []int{999}); err == nil {
		t.Fatal("bad zone accepted")
	}
	// Duplicate server node rejected.
	if _, err := NewWorldFromParts(cfg, g, dm, []int{0, 0, 1, 2, 3}, caps, clientNodes, clientZones); err == nil {
		t.Fatal("duplicate server node accepted")
	}
}

func TestSetClientZones(t *testing.T) {
	g, dm := testTopo(t)
	w, err := BuildWorld(xrand.New(44), testConfig(), g, dm)
	if err != nil {
		t.Fatal(err)
	}
	zones := make([]int, w.NumClients())
	for i := range zones {
		zones[i] = i % w.Cfg.Zones
	}
	if err := w.SetClientZones(zones); err != nil {
		t.Fatal(err)
	}
	for i := range zones {
		if w.ClientZones[i] != i%w.Cfg.Zones {
			t.Fatalf("zone %d not applied", i)
		}
	}
	if err := w.SetClientZones(zones[:1]); err == nil {
		t.Fatal("short zone vector accepted")
	}
	zones[0] = -1
	if err := w.SetClientZones(zones); err == nil {
		t.Fatal("negative zone accepted")
	}
}
