package dvecap

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// trafficSpecJSON is specJSON plus a traffic section. The adjacency edge is
// deliberately written in NON-canonical order (forest before plaza, but
// plaza has the lower zone index) to exercise normalization on export.
var trafficSpecJSON = strings.Replace(specJSON,
	`"delay_bound_ms": 100,`,
	`"delay_bound_ms": 100,
  "traffic_weight": 2,
  "zone_adjacency": [{"zone1": "forest", "zone2": "plaza", "weight_mbps": 3.5}],`, 1)

// TestClusterJSONAdjacencyRoundTrip: the traffic section of a cluster spec
// loads onto the exact builder calls (SetZoneAdjacency + SetTrafficWeight),
// exports in canonical edge order, and re-exports byte-identically.
func TestClusterJSONAdjacencyRoundTrip(t *testing.T) {
	c, err := ReadClusterJSON(strings.NewReader(trafficSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.problem()
	if err != nil {
		t.Fatal(err)
	}
	if p.TrafficWeight != 2 {
		t.Fatalf("TrafficWeight = %v, want 2", p.TrafficWeight)
	}
	if p.Adjacency == nil || p.Adjacency.Weight(0, 1) != 3.5 {
		t.Fatalf("adjacency (plaza, forest) not loaded: %+v", p.Adjacency)
	}

	got, err := c.Solve("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	hand := smallCluster(t)
	if err := hand.SetZoneAdjacency("forest", "plaza", 3.5); err != nil {
		t.Fatal(err)
	}
	if err := hand.SetTrafficWeight(2); err != nil {
		t.Fatal(err)
	}
	want, err := hand.Solve("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "json vs builder (traffic)", got, want)

	var buf bytes.Buffer
	if err := c.WriteClusterJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Export normalizes the edge to canonical order: lower zone index
	// (plaza) first, even though the spec wrote forest first.
	if !bytes.Contains(buf.Bytes(), []byte(`"zone1": "plaza"`)) ||
		!bytes.Contains(buf.Bytes(), []byte(`"zone2": "forest"`)) {
		t.Fatalf("export did not normalize edge order:\n%s", buf.String())
	}
	reread, err := ReadClusterJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading written traffic spec: %v\n%s", err, buf.String())
	}
	var buf2 bytes.Buffer
	if err := reread.WriteClusterJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("second write is not byte-identical (traffic export not normalized)")
	}
}

// TestClusterJSONPreTrafficOmitsAdjacency: a spec without interaction
// edges exports without the traffic keys at all, so pre-traffic specs stay
// byte-for-byte what they were before the traffic objective existed.
func TestClusterJSONPreTrafficOmitsAdjacency(t *testing.T) {
	c, err := ReadClusterJSON(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteClusterJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"zone_adjacency", "traffic_weight"} {
		if bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Fatalf("pre-traffic export mentions %q:\n%s", key, buf.String())
		}
	}
}

// TestTrafficZeroWeightPublicBitIdentical is the public-surface zero-value
// guard: registering adjacency edges while leaving λ = 0 must reproduce
// the no-traffic solve bit for bit, at 1 and 4 workers. With the weight at
// zero the term contributes exactly +0.0 to every score, so any divergence
// means the traffic plumbing leaks into the pre-existing objective.
func TestTrafficZeroWeightPublicBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			want, err := durTestCluster(t, 11).Solve("GreZ-GreC",
				WithSeed(3), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			c := durTestCluster(t, 11)
			if err := c.SetZoneAdjacency("z0", "z1", 4); err != nil {
				t.Fatal(err)
			}
			if err := c.SetZoneAdjacency("z2", "z5", 1.5); err != nil {
				t.Fatal(err)
			}
			got, err := c.Solve("GreZ-GreC",
				WithSeed(3), WithWorkers(workers), WithTrafficWeight(0))
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "zero-weight traffic", got, want)
		})
	}
}

// expectCut recomputes the cross-server cut from the session's visible
// zone hosting and compares it against TrafficCut. Edge weights are exact
// binary fractions so summation order cannot perturb the total.
func expectCut(t *testing.T, s *ClusterSession, edges map[[2]string]float64) {
	t.Helper()
	want := 0.0
	for e, w := range edges {
		h1, err := s.ZoneHost(e[0])
		if err != nil {
			t.Fatal(err)
		}
		h2, err := s.ZoneHost(e[1])
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			want += w
		}
	}
	if got := s.TrafficCut(); got != want {
		t.Fatalf("TrafficCut = %v, want %v (from visible hosting)", got, want)
	}
}

// TestSessionAdjacencyVerbs drives the live adjacency surface — set, add,
// remove, zone-spec seeding — and checks the edit counter, the cut/cost
// readbacks and every validation error.
func TestSessionAdjacencyVerbs(t *testing.T) {
	s, err := durTestCluster(t, 11).Open("GreZ-GreC", WithSeed(1), WithTrafficWeight(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if s.TrafficCut() != 0 || s.Stats().AdjacencyEdits != 0 {
		t.Fatalf("fresh session: cut %v edits %d, want 0/0", s.TrafficCut(), s.Stats().AdjacencyEdits)
	}
	edges := map[[2]string]float64{}

	if err := s.SetZoneAdjacency("z0", "z1", 2.5); err != nil {
		t.Fatal(err)
	}
	edges[[2]string{"z0", "z1"}] = 2.5
	expectCut(t, s, edges)

	if err := s.AddAdjacencyWeight("z0", "z1", 0.75); err != nil {
		t.Fatal(err)
	}
	edges[[2]string{"z0", "z1"}] = 3.25
	expectCut(t, s, edges)

	// The add form creates a missing edge at the delta.
	if err := s.AddAdjacencyWeight("z4", "z2", 1.25); err != nil {
		t.Fatal(err)
	}
	edges[[2]string{"z4", "z2"}] = 1.25
	expectCut(t, s, edges)

	// Zone growth can seed edges to existing zones through the spec.
	if err := s.AddZone("zx", ZoneSpec{Adjacency: map[string]float64{"z3": 0.5}}); err != nil {
		t.Fatal(err)
	}
	edges[[2]string{"zx", "z3"}] = 0.5
	expectCut(t, s, edges)

	if got := s.Stats().AdjacencyEdits; got != 4 {
		t.Fatalf("AdjacencyEdits = %d, want 4", got)
	}
	if got, want := s.TrafficCost(), 1.5*s.TrafficCut(); got != want {
		t.Fatalf("TrafficCost = %v, want λ·cut = %v", got, want)
	}

	// Weight 0 in the set form removes the edge.
	if err := s.SetZoneAdjacency("z1", "z0", 0); err != nil {
		t.Fatal(err)
	}
	delete(edges, [2]string{"z0", "z1"})
	expectCut(t, s, edges)

	for name, call := range map[string]func() error{
		"unknown zone":  func() error { return s.SetZoneAdjacency("z0", "nope", 1) },
		"self edge":     func() error { return s.SetZoneAdjacency("z2", "z2", 1) },
		"negative":      func() error { return s.SetZoneAdjacency("z0", "z1", -1) },
		"zero delta":    func() error { return s.AddAdjacencyWeight("z0", "z1", 0) },
		"unknown seed":  func() error { return s.AddZone("zy", ZoneSpec{Adjacency: map[string]float64{"nope": 1}}) },
		"negative seed": func() error { return s.AddZone("zz", ZoneSpec{Adjacency: map[string]float64{"z0": -2}}) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBuilderAdjacencyRuleMatchesSession: the builder's SetZoneAdjacency
// takes exactly the edges a session's set form takes, and names itself in
// what it refuses.
func TestBuilderAdjacencyRuleMatchesSession(t *testing.T) {
	c := durTestCluster(t, 11)
	s, err := durTestCluster(t, 11).Open("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		z1, z2 string
		w      float64
	}{
		{"z0", "z1", 2.5}, {"z0", "z1", 0}, {"z0", "z0", 1}, {"z1", "z0", -1},
		{"z0", "z1", math.NaN()}, {"z0", "z1", math.Inf(1)}, {"z0", "z1", math.Inf(-1)},
	} {
		built, live := c.SetZoneAdjacency(tc.z1, tc.z2, tc.w), s.SetZoneAdjacency(tc.z1, tc.z2, tc.w)
		if (built == nil) != (live == nil) {
			t.Errorf("(%s,%s,%v): builder %v, session %v", tc.z1, tc.z2, tc.w, built, live)
		}
		if built != nil && !strings.HasPrefix(built.Error(), "dvecap: ") {
			t.Errorf("(%s,%s,%v): builder error %q lacks the package prefix", tc.z1, tc.z2, tc.w, built)
		}
	}
}

// adjChurn interleaves the standard session churn with live adjacency
// edits — the mix a mobility feed produces. Two drivers with equal seeds
// issue identical sequences, so crashed-and-recovered sessions can be
// compared against uninterrupted controls.
type adjChurn struct {
	sc  *sessChurn
	rng *xrand.RNG
}

func newAdjChurn(seed uint64) *adjChurn {
	return &adjChurn{sc: newSessChurn(xrand.New(seed)), rng: xrand.New(seed + 1)}
}

func (d *adjChurn) run(t *testing.T, s *ClusterSession, events int) {
	t.Helper()
	for e := 0; e < events; e++ {
		if d.rng.Float64() >= 0.35 {
			d.sc.run(t, s, 1)
			continue
		}
		zids := s.ZoneIDs()
		a := d.rng.IntN(len(zids))
		b := d.rng.IntN(len(zids) - 1)
		if b >= a {
			b++
		}
		switch r := d.rng.Float64(); {
		case r < 0.50:
			if err := s.SetZoneAdjacency(zids[a], zids[b], d.rng.Uniform(0.5, 4)); err != nil {
				t.Fatalf("event %d set adjacency: %v", e, err)
			}
		case r < 0.85:
			if err := s.AddAdjacencyWeight(zids[a], zids[b], d.rng.Uniform(0.1, 1)); err != nil {
				t.Fatalf("event %d add adjacency: %v", e, err)
			}
		default:
			if err := s.SetZoneAdjacency(zids[a], zids[b], 0); err != nil {
				t.Fatalf("event %d remove adjacency: %v", e, err)
			}
		}
	}
}

// TestDurableAdjacencyKillRecoverBitIdentical extends the durability
// tentpole to the traffic objective: a session running with λ > 0 and live
// adjacency churn, killed mid-storm, must recover from snapshot + log tail
// and continue bit-identical to an uninterrupted control — including the
// interaction graph itself and the traffic readbacks derived from it.
func TestDurableAdjacencyKillRecoverBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := []Option{WithWorkers(workers), WithSeed(7), WithTrafficWeight(2)}
			control, err := durTestCluster(t, 11).Open("GreZ-GreC", opts...)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			durable, err := durTestCluster(t, 11).Open("GreZ-GreC",
				append([]Option{WithDurability(dir), WithSnapshotEvery(17),
					WithTelemetry(telemetry.NewRegistry()), WithTraceLog(io.Discard)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}

			const churnSeed, killAt, total = 631, 60, 90
			dc := newAdjChurn(churnSeed)
			dd := newAdjChurn(churnSeed)
			dc.run(t, control, total)
			dd.run(t, durable, killAt)
			recovered := reopenDurable(t, dir, "GreZ-GreC", workers)
			dd.run(t, recovered, total-killAt)
			requireSameSession(t, control, recovered)
			if a, b := control.TrafficCut(), recovered.TrafficCut(); a != b {
				t.Fatalf("TrafficCut diverged: %v vs %v", a, b)
			}
			if a, b := control.TrafficCost(), recovered.TrafficCost(); a != b {
				t.Fatalf("TrafficCost diverged: %v vs %v", a, b)
			}
		})
	}
}
