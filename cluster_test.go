package dvecap

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
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
	// A coordinate has the coordinate provider's 5 entries: the builder
	// would otherwise zero-pad or truncate it.
	for _, tc := range []struct {
		coord []float64
		want  string
	}{
		{[]float64{}, `dvecap: client "a" coordinate has 0 entries, want 5`},
		{[]float64{1, 2, 3, 4}, `dvecap: client "a" coordinate has 4 entries, want 5`},
		{[]float64{1, 2, 3, 4, 5, 6}, `dvecap: client "a" coordinate has 6 entries, want 5`},
	} {
		bad = ok
		bad.RTTRow, bad.Coord = nil, tc.coord
		if err := c.AddClient("a", bad); err == nil || err.Error() != tc.want {
			t.Fatalf("coordinate of %d entries: err = %v, want %q", len(tc.coord), err, tc.want)
		}
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
	again, err := c.Solve("GreZ-GreC", WithSeed(1), WithWorkers(4))
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
	// An overcommitted cluster still solves: the item spills onto the
	// server with the largest residual capacity.
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

// TestClusterRefusesInfiniteServerRTT: a +Inf server↔server RTT, as a matrix
// or as a pair, is refused where the cluster is built — by Solve, Open
// (durable or not) and WriteClusterJSON alike, with the one error naming
// the entry — and not later by a JSON encoder.
func TestClusterRefusesInfiniteServerRTT(t *testing.T) {
	inf := math.Inf(1)
	for _, pair := range []bool{false, true} {
		c := NewCluster(100)
		spec := ServerSpec{CapacityMbps: 10}
		if pair {
			spec.RTTs = map[string]float64{"b": inf}
		}
		for _, err := range []error{
			c.AddServer("a", spec),
			c.AddServer("b", ServerSpec{CapacityMbps: 10}),
			c.AddZone("z"),
			c.AddClient("c", ClientSpec{Zone: "z", BandwidthMbps: 1, RTTRow: []float64{10, 20}}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if !pair {
			if err := c.SetServerRTTs([][]float64{{0, inf}, {inf, 0}}); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		_, errSolve := c.Solve("GreZ-GreC")
		_, errOpen := c.Open("GreZ-GreC")
		_, errDurable := c.Open("GreZ-GreC", WithDurability(dir))
		errWrite := c.WriteClusterJSON(io.Discard)
		const want = "dvecap: invalid cluster: core: SS[0][1] = +Inf, want finite >= 0"
		for name, err := range map[string]error{"Solve": errSolve, "Open": errOpen, "durable Open": errDurable, "WriteClusterJSON": errWrite} {
			if err == nil || err.Error() != want {
				t.Errorf("pair=%v %s: err = %v, want %q", pair, name, err, want)
			}
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("pair=%v: refused durable Open left %d entries (%v)", pair, len(ents), err)
		}
	}
}

// TestAddClientCopiesItsInputs: the builder keeps its own copy of a client's
// delay row, RTT map and coordinate, so a caller that reuses or edits them
// after AddClient does not change the instance — not even once a later
// builder call invalidates the cached build and the problem is built again.
func TestAddClientCopiesItsInputs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		model  DelayModel
		spec   ClientSpec
		mutate func(ClientSpec)
	}{
		{"row", DenseDelays, ClientSpec{RTTRow: []float64{10, 200}}, func(s ClientSpec) { s.RTTRow[0], s.RTTRow[1] = 200, 10 }},
		{"map", DenseDelays, ClientSpec{RTTs: map[string]float64{"fra": 10, "nyc": 200}}, func(s ClientSpec) { s.RTTs["fra"], s.RTTs["nyc"] = 200, 10 }},
		{"coord", CoordDelays, ClientSpec{Coord: []float64{10, 20, 30, 40, 50}}, func(s ClientSpec) { s.Coord[0], s.Coord[4] = -300, 300 }},
		{"coord + partial RTTs", CoordDelays, ClientSpec{Coord: []float64{10, 20, 30, 40, 50}, RTTs: map[string]float64{"nyc": 200}},
			func(s ClientSpec) { s.Coord[1], s.RTTs["nyc"], s.RTTs["fra"] = 500, 10, 5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(100)
			if err := c.AddServer("fra", ServerSpec{CapacityMbps: 100, RTTs: map[string]float64{"nyc": 80}}); err != nil {
				t.Fatal(err)
			}
			if err := c.AddServer("nyc", ServerSpec{CapacityMbps: 100}); err != nil {
				t.Fatal(err)
			}
			if err := c.AddZone("plaza"); err != nil {
				t.Fatal(err)
			}
			spec := tc.spec
			spec.Zone, spec.BandwidthMbps = "plaza", 1
			if err := c.AddClient("solo", spec); err != nil {
				t.Fatal(err)
			}
			row := func() []float64 {
				t.Helper()
				p, err := c.problemFor(tc.model)
				if err != nil {
					t.Fatal(err)
				}
				return p.Delays.Row(0, make([]float64, 2))
			}
			want := row()
			tc.mutate(spec)
			if err := c.AddZone("forest"); err != nil { // forces a rebuild
				t.Fatal(err)
			}
			if got := row(); !slices.Equal(got, want) {
				t.Fatalf("delays %v after the caller's edit, %v before: the edit reached the instance", got, want)
			}
			res, err := c.Solve("GreZ-GreC", WithSeed(1), WithDelayProvider(tc.model))
			if err != nil {
				t.Fatal(err)
			}
			if tc.model == DenseDelays && res.ZoneServer[0] != 0 {
				t.Fatalf("plaza hosted on server %d: the caller's edit after AddClient reached the instance", res.ZoneServer[0])
			}
		})
	}
}

// TestSessionJoinRefusesCoord: Join and JoinBatch refuse a coordinate by
// name — alone, or beside a row or map it would otherwise be dropped from —
// and admit no one.
func TestSessionJoinRefusesCoord(t *testing.T) {
	s, err := smallCluster(t).Open("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	coord := []float64{1, 2, 3, 4, 5}
	for name, spec := range map[string]ClientSpec{
		"coord":       {Zone: "plaza", BandwidthMbps: 1, Coord: coord},
		"coord + row": {Zone: "plaza", BandwidthMbps: 1, Coord: coord, RTTRow: []float64{10, 20}},
		"coord + map": {Zone: "plaza", BandwidthMbps: 1, Coord: coord, RTTs: map[string]float64{"fra": 10, "nyc": 20}},
	} {
		for verb, join := range map[string]func() error{
			"Join":      func() error { return s.Join("eve", spec) },
			"JoinBatch": func() error { return s.JoinBatch([]ClientJoin{{ID: "eve", Spec: spec}}) },
		} {
			const want = `dvecap: client "eve": Coord is a builder input; sessions take measured rows (RTTs or RTTRow)`
			if err := join(); err == nil || err.Error() != want {
				t.Errorf("%s with %s: err = %v, want %q", verb, name, err, want)
			}
		}
	}
	if n := s.NumClients(); n != 4 {
		t.Fatalf("%d clients after refused joins, want 4", n)
	}
}

// TestBuiltRowsMatchTheirInputs: every client's delays in a built problem
// are what AddClient was handed — rows, maps and coordinate overrides
// interleaved, over enough 7-entry rows that the builder's row chunks end
// mid-row many times — under both delay models.
func TestBuiltRowsMatchTheirInputs(t *testing.T) {
	const m, k = 7, 30000
	c := NewCluster(100)
	ss := make([][]float64, m)
	for i := range ss {
		ss[i] = make([]float64, m)
		for l := range ss[i] {
			ss[i][l] = float64(10 * (i - l) * (i - l))
		}
		if err := c.AddServer(fmt.Sprintf("s%d", i), ServerSpec{CapacityMbps: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetServerRTTs(ss); err != nil {
		t.Fatal(err)
	}
	if err := c.AddZone("z"); err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, k)
	for j := range want {
		want[j] = make([]float64, m)
		for i := range want[j] {
			want[j][i] = float64(j%997 + i)
		}
		spec := ClientSpec{Zone: "z", BandwidthMbps: 1, RTTRow: want[j]}
		if j%5 == 0 {
			spec.RTTRow, spec.RTTs = nil, map[string]float64{}
			for i, d := range want[j] {
				spec.RTTs[fmt.Sprintf("s%d", i)] = d
			}
		}
		if err := c.AddClient(fmt.Sprintf("c%d", j), spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, model := range []DelayModel{DenseDelays, CoordDelays} {
		p, err := c.problemFor(model)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, m)
		for j, w := range want {
			if got := p.Delays.Row(j, buf); !slices.Equal(got, w) {
				t.Fatalf("model %d client %d: row %v, handed %v", model, j, got, w)
			}
		}
	}
}
