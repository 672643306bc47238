package dvecap

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/repair"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// sequentialOpen builds the session Cluster.Open builds with one step after
// the other — repair.New, then NewIDBinding and NameTopology — where Open
// builds the client name table beside the planner (repair.BindPlanner).
func sequentialOpen(t *testing.T, c *Cluster, algorithm string, opts ...Option) *ClusterSession {
	t.Helper()
	cfg := resolveOptions(opts)
	tp, _ := core.ByName(algorithm)
	p, err := c.problemTrafficFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.coreOptions()
	if p == c.built {
		opt.Late = &c.late
	}
	pl, err := repair.New(repair.Config{Algo: tp, Opt: opt, DriftPQoS: cfg.drift, DriftUtilSpread: cfg.spread}, p, cfg.rngFor().Split())
	if err != nil {
		t.Fatal(err)
	}
	b, err := repair.NewIDBinding(pl, c.ClientIDs())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.NameTopology(c.ServerIDs(), c.ZoneIDs()); err != nil {
		t.Fatal(err)
	}
	m, err := repair.NewMachine(b, algorithm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.durDir != "" {
		if err := m.MakeDurable(cfg.journalConfig()); err != nil {
			t.Fatal(err)
		}
	}
	return &ClusterSession{m: m, binding: b, tracer: telemetry.NewTracer(nil)}
}

// rawCluster is a k-client cluster on the raw matrix: m servers, every
// client with a full measured row.
func rawCluster(t *testing.T, rng *xrand.RNG, m, zones, k int) *Cluster {
	t.Helper()
	c := NewCluster(250)
	ss := make([][]float64, m)
	for i := range ss {
		ss[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		if err := c.AddServer(fmt.Sprintf("s%d", i), ServerSpec{CapacityMbps: 1.3 * float64(k) * 0.35 / float64(m)}); err != nil {
			t.Fatal(err)
		}
		for l := i + 1; l < m; l++ {
			ss[i][l] = rng.Uniform(10, 60)
			ss[l][i] = ss[i][l]
		}
	}
	if err := c.SetServerRTTs(ss); err != nil {
		t.Fatal(err)
	}
	for z := 0; z < zones; z++ {
		if err := c.AddZone(fmt.Sprintf("z%d", z)); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < k; j++ {
		if err := c.AddClient(fmt.Sprintf("c%d", j), ClientSpec{
			Zone:          fmt.Sprintf("z%d", rng.IntN(zones)),
			BandwidthMbps: rng.Uniform(0.1, 0.6),
			RTTRow:        durRow(rng, m),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestOpenMatchesSequentialConstruction: Cluster.Open, which builds the
// client name table on a second goroutine while the planner is built, opens
// the session a step-by-step construction opens — on a coordinate-native and
// a raw-matrix 20k-client cluster, durable both, compared at open and after
// 500 mixed events: every Result slice, the Stats and the snapshot bytes.
func TestOpenMatchesSequentialConstruction(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Cluster
		model DelayModel
	}{
		{"coord", func() *Cluster { return buildCoordCluster(t, xrand.New(3), 20, 100, 20_000) }, CoordDelays},
		{"raw", func() *Cluster { return rawCluster(t, xrand.New(4), 12, 60, 20_000) }, DenseDelays},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			opts := []Option{WithSeed(5), WithDelayProvider(tc.model), WithDriftGuard(0.02)}
			got, err := c.Open("GreZ-GreC", append(opts, WithDurability(t.TempDir()))...)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			want := sequentialOpen(t, c, "GreZ-GreC", append(opts, WithDurability(t.TempDir()))...)
			defer want.Close()
			compare := func(stage string) {
				t.Helper()
				gr, _ := got.Result()
				wr, _ := want.Result()
				requireSameResult(t, stage, gr, wr)
				if !slices.Equal(gr.ClientIDs, wr.ClientIDs) {
					t.Fatalf("%s: client IDs differ", stage)
				}
				if g, w := got.Stats(), want.Stats(); g != w {
					t.Fatalf("%s: stats %+v vs %+v", stage, g, w)
				}
				gb, err := got.m.Render(0)
				if err != nil {
					t.Fatal(err)
				}
				wb, err := want.m.Render(0)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s: snapshots differ (%d vs %d bytes)", stage, len(gb), len(wb))
				}
			}
			compare("open")
			for _, s := range []*ClusterSession{got, want} {
				d := &sessChurn{rng: xrand.New(11), live: c.ClientIDs()}
				d.run(t, s, 500)
			}
			compare("after 500 events")
		})
	}
}
