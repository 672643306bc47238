package dvecap

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// smallCluster builds the two-server / two-zone / four-client instance the
// godoc example uses, via the map-RTT path.
func smallCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(100)
	if err := c.AddServer("fra", ServerSpec{CapacityMbps: 100, RTTs: map[string]float64{"nyc": 80}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddServer("nyc", ServerSpec{CapacityMbps: 100}); err != nil {
		t.Fatal(err)
	}
	for _, z := range []string{"plaza", "forest"} {
		if err := c.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	for _, cl := range []struct {
		id, zone string
		fra, nyc float64
	}{
		{"alice", "plaza", 20, 95},
		{"bruno", "plaza", 30, 90},
		{"chloe", "forest", 95, 15},
		{"diego", "forest", 90, 25},
	} {
		err := c.AddClient(cl.id, ClientSpec{
			Zone:          cl.zone,
			BandwidthMbps: 2,
			RTTs:          map[string]float64{"fra": cl.fra, "nyc": cl.nyc},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestClusterBuilderValidation(t *testing.T) {
	c := NewCluster(100)
	if err := c.AddServer("", ServerSpec{CapacityMbps: 1}); err == nil {
		t.Fatal("empty server ID accepted")
	}
	if err := c.AddServer("fra", ServerSpec{CapacityMbps: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if err := c.AddServer("fra", ServerSpec{CapacityMbps: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddServer("fra", ServerSpec{CapacityMbps: 100}); err == nil {
		t.Fatal("duplicate server accepted")
	}
	if err := c.AddZone(""); err == nil {
		t.Fatal("empty zone ID accepted")
	}
	if err := c.AddZone("plaza"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddZone("plaza"); err == nil {
		t.Fatal("duplicate zone accepted")
	}

	row := []float64{10}
	ok := ClientSpec{Zone: "plaza", BandwidthMbps: 1, RTTRow: row}
	if err := c.AddClient("", ok); err == nil {
		t.Fatal("empty client ID accepted")
	}
	bad := ok
	bad.Zone = "atlantis"
	if err := c.AddClient("a", bad); !errors.Is(err, ErrUnknownZone) {
		t.Fatalf("unknown zone: err = %v, want ErrUnknownZone", err)
	}
	bad = ok
	bad.BandwidthMbps = 0
	if err := c.AddClient("a", bad); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = ok
	bad.RTTs = map[string]float64{"fra": 10}
	if err := c.AddClient("a", bad); err == nil {
		t.Fatal("both RTTs and RTTRow accepted")
	}
	bad.RTTRow = nil
	bad.RTTs = nil
	if err := c.AddClient("a", bad); err == nil {
		t.Fatal("neither RTTs nor RTTRow accepted")
	}
	if err := c.AddClient("a", ok); err != nil {
		t.Fatal(err)
	}
	if err := c.AddClient("a", ok); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("duplicate client: err = %v, want ErrDuplicateClient", err)
	}
}

func TestClusterRTTCoverage(t *testing.T) {
	// A missing server pair surfaces at solve time, naming the pair.
	c := NewCluster(100)
	for _, s := range []string{"fra", "nyc", "sgp"} {
		if err := c.AddServer(s, ServerSpec{CapacityMbps: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddZone("plaza"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve("GreZ-GreC"); err == nil || !strings.Contains(err.Error(), "missing RTT") {
		t.Fatalf("missing server pair: err = %v", err)
	}
	// Conflicting per-pair measurements are rejected.
	c2 := NewCluster(100)
	if err := c2.AddServer("fra", ServerSpec{CapacityMbps: 100, RTTs: map[string]float64{"nyc": 80}}); err != nil {
		t.Fatal(err)
	}
	if err := c2.AddServer("nyc", ServerSpec{CapacityMbps: 100, RTTs: map[string]float64{"fra": 90}}); err != nil {
		t.Fatal(err)
	}
	if err := c2.AddZone("plaza"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Solve("GreZ-GreC"); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflicting pair: err = %v", err)
	}
	// A nonzero self-RTT is rejected; SetServerRTTs shape is checked.
	c3 := NewCluster(100)
	if err := c3.AddServer("fra", ServerSpec{CapacityMbps: 100, RTTs: map[string]float64{"fra": 5}}); err != nil {
		t.Fatal(err)
	}
	if err := c3.AddZone("plaza"); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Solve("GreZ-GreC"); err == nil || !strings.Contains(err.Error(), "self-RTT") {
		t.Fatalf("self-RTT: err = %v", err)
	}
	if err := c3.SetServerRTTs([][]float64{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("mis-shaped matrix accepted")
	}
	// A client RTT map must cover every server and reference only servers.
	c4 := smallCluster(t)
	if err := c4.AddClient("eve", ClientSpec{
		Zone: "plaza", BandwidthMbps: 1,
		RTTs: map[string]float64{"fra": 10},
	}); err != nil {
		t.Fatal(err) // coverage is checked at solve time
	}
	if _, err := c4.Solve("GreZ-GreC"); err == nil || !strings.Contains(err.Error(), "missing RTT") {
		t.Fatalf("uncovered client row: err = %v", err)
	}
	c5 := smallCluster(t)
	if err := c5.AddClient("eve", ClientSpec{
		Zone: "plaza", BandwidthMbps: 1,
		RTTs: map[string]float64{"fra": 10, "lon": 20},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c5.Solve("GreZ-GreC"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("unknown server in client row: err = %v, want ErrUnknownServer", err)
	}
	c6 := smallCluster(t)
	if err := c6.AddClient("eve", ClientSpec{
		Zone: "plaza", BandwidthMbps: 1, RTTRow: []float64{1, 2, 3},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c6.Solve("GreZ-GreC"); err == nil || !strings.Contains(err.Error(), "entries") {
		t.Fatalf("mis-sized RTT row: err = %v", err)
	}
}

func TestClusterSolveOptions(t *testing.T) {
	c := smallCluster(t)
	if _, err := c.Solve("NoSuchAlgo"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	base, err := c.Solve("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Clients != 4 || len(base.ClientIDs) != 4 || base.ClientIDs[0] != "alice" {
		t.Fatalf("result shape: %+v", base)
	}
	// Same seed reproduces; options compose without changing this instance's
	// (already optimal) outcome.
	again, err := c.Solve("GreZ-GreC", WithSeed(1), WithWorkers(4), WithLocalSearchRounds(2))
	if err != nil {
		t.Fatal(err)
	}
	if again.PQoS != base.PQoS || again.WithQoS != base.WithQoS {
		t.Fatalf("seeded re-solve diverged: %v vs %v", again.PQoS, base.PQoS)
	}
	// Estimation noise still solves (evaluated against supplied delays).
	noisy, err := c.Solve("GreZ-GreC", WithSeed(1), WithEstimationError(2))
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Clients != 4 {
		t.Fatalf("noisy solve shape: %+v", noisy)
	}
	if _, err := c.Solve("GreZ-GreC", WithEstimationError(0.5)); err == nil {
		t.Fatal("estimation factor < 1 accepted")
	}
	// ErrorOnOverflow surfaces infeasibility instead of spilling.
	tiny := NewCluster(100)
	if err := tiny.AddServer("fra", ServerSpec{CapacityMbps: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tiny.AddZone("plaza"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := tiny.AddClient(id, ClientSpec{Zone: "plaza", BandwidthMbps: 5, RTTRow: []float64{10}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tiny.Solve("GreZ-GreC", WithOverflow(ErrorOnOverflow)); err == nil {
		t.Fatal("overcommitted cluster solved under ErrorOnOverflow")
	}
	if _, err := tiny.Solve("GreZ-GreC"); err != nil {
		t.Fatalf("spill policy should complete: %v", err)
	}
}

func TestClusterSessionErrorsByID(t *testing.T) {
	c := smallCluster(t)
	sess, err := c.Open("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := ClientSpec{Zone: "plaza", BandwidthMbps: 1, RTTRow: []float64{10, 20}}
	if err := sess.Join("alice", spec); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("duplicate join: err = %v, want ErrDuplicateClient", err)
	}
	if err := sess.Leave("ghost"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("unknown leave: err = %v, want ErrUnknownClient", err)
	}
	if err := sess.Move("ghost", "plaza"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("unknown move: err = %v, want ErrUnknownClient", err)
	}
	if err := sess.Move("alice", "atlantis"); !errors.Is(err, ErrUnknownZone) {
		t.Fatalf("move to unknown zone: err = %v, want ErrUnknownZone", err)
	}
	if err := sess.UpdateDelays("alice", map[string]float64{"lon": 10}); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("refresh to unknown server: err = %v, want ErrUnknownServer", err)
	}
	if err := sess.UpdateDelays("ghost", map[string]float64{"fra": 10}); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("refresh of unknown client: err = %v, want ErrUnknownClient", err)
	}
	if _, err := sess.Client("ghost"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("lookup of unknown client: err = %v, want ErrUnknownClient", err)
	}
	if _, err := sess.ZoneHost("atlantis"); !errors.Is(err, ErrUnknownZone) {
		t.Fatalf("host of unknown zone: err = %v, want ErrUnknownZone", err)
	}
	// The session snapshots the builder: mutating it afterwards changes
	// nothing for the open session.
	if err := c.AddZone("harbor"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ZoneHost("harbor"); !errors.Is(err, ErrUnknownZone) {
		t.Fatal("session saw a zone added to the builder after Open")
	}
}

func TestWithCorrelationOption(t *testing.T) {
	// The option is the only way to set δ; an explicit 0 is honoured, not
	// mistaken for "unset".
	for _, delta := range []float64{0.8, 0} {
		scn, err := NewScenario(ScenarioParams{Seed: 3}, WithCorrelation(delta))
		if err != nil {
			t.Fatal(err)
		}
		if got := scn.world.Cfg.Correlation; got != delta {
			t.Fatalf("correlation = %v, want option value %v", got, delta)
		}
	}
	if _, err := NewScenario(ScenarioParams{Seed: 3}, WithCorrelation(1.5)); err == nil {
		t.Fatal("correlation > 1 accepted")
	}
	if _, err := NewScenario(ScenarioParams{Seed: 3}, WithCorrelation(-0.1)); err == nil {
		t.Fatal("negative correlation accepted")
	}
}

func TestWithSeedOverridesParamsSeed(t *testing.T) {
	a, err := NewScenario(ScenarioParams{Seed: 1, Servers: 5, Zones: 10, Clients: 100}, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScenario(ScenarioParams{Seed: 9, Servers: 5, Zones: 10, Clients: 100})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Assign("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Assign("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "WithSeed(9) vs Seed:9", ra, rb)
}

func TestClusterRejectsInvalidMeasurements(t *testing.T) {
	nan := math.NaN()
	c := smallCluster(t)
	if err := c.AddServer("bad", ServerSpec{CapacityMbps: nan}); err == nil {
		t.Fatal("NaN capacity accepted")
	}
	if err := c.AddClient("eve", ClientSpec{Zone: "plaza", BandwidthMbps: nan, RTTRow: []float64{1, 2}}); err == nil {
		t.Fatal("NaN bandwidth accepted")
	}
	if err := c.AddClient("eve", ClientSpec{Zone: "plaza", BandwidthMbps: 1, RTTRow: []float64{-1, 2}}); err != nil {
		t.Fatal(err) // row content is checked at solve/open time
	}
	if _, err := c.Solve("GreZ-GreC"); err == nil || !strings.Contains(err.Error(), ">= 0") {
		t.Fatalf("negative RTT row solved: err = %v", err)
	}

	sess, err := smallCluster(t).Open("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// The live session has no later Validate pass, so every mouth must
	// reject out-of-model measurements up front.
	if err := sess.Join("eve", ClientSpec{Zone: "plaza", BandwidthMbps: 1, RTTRow: []float64{nan, 2}}); err == nil {
		t.Fatal("session join with NaN RTT accepted")
	}
	if err := sess.Join("eve", ClientSpec{Zone: "plaza", BandwidthMbps: 1, RTTs: map[string]float64{"fra": -5, "nyc": 2}}); err == nil {
		t.Fatal("session join with negative RTT accepted")
	}
	if err := sess.UpdateDelays("alice", map[string]float64{"fra": nan}); err == nil {
		t.Fatal("NaN delay refresh accepted")
	}
	if err := sess.UpdateDelays("alice", map[string]float64{"fra": -3}); err == nil {
		t.Fatal("negative delay refresh accepted")
	}
	if err := sess.UpdateDelayRow("alice", []float64{-3, 10}); err == nil {
		t.Fatal("negative delay row accepted")
	}
	if err := sess.SetBandwidth("alice", nan); err == nil {
		t.Fatal("NaN bandwidth update accepted")
	}
	// An empty refresh is a no-op for a live client but must still report
	// unknown IDs — callers batching re-probe results rely on the signal.
	if err := sess.UpdateDelays("alice", nil); err != nil {
		t.Fatalf("empty refresh of live client: %v", err)
	}
	if err := sess.UpdateDelays("ghost", nil); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("empty refresh of unknown client: err = %v, want ErrUnknownClient", err)
	}
}
