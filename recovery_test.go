package dvecap

import (
	"bytes"
	"io"
	"testing"
	"time"

	"dvecap/internal/director"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// TestRecoveryGaugesSplitLoadAndReplay: a durable reopen with telemetry
// reports both halves of what recovery cost — the snapshot load and the
// log replay after it — on both journaled surfaces, and the two together
// fit inside the reopen's own wall time.
func TestRecoveryGaugesSplitLoadAndReplay(t *testing.T) {
	g, err := topology.Waxman(xrand.New(5), topology.DefaultWaxman(40))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		sf     durableSurface
		reopen func(dir string, reg *telemetry.Registry) (io.Closer, error)
	}{
		{"session", sessionSurface(DenseDelays), func(dir string, reg *telemetry.Registry) (io.Closer, error) {
			return NewCluster(1).Open("GreZ-GreC", WithDurability(dir), WithTelemetry(reg))
		}},
		{"director", directorSurface(t), func(dir string, reg *telemetry.Registry) (io.Closer, error) {
			return director.New(director.Config{
				ServerNodes: []int{1}, ServerCaps: []float64{5}, Zones: 2, Delays: dm,
				DelayBoundMs: 250, FrameRate: 25, MessageBytes: 100, Seed: 1,
				DataDir: dir, Telemetry: reg,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := proofRun{dir: t.TempDir(), workers: 1, snapEvery: 17, churnSeed: 401}
			tc.sf.open(t, run).run(t, 60) // killed: no Close, a tail after the last checkpoint
			reg := telemetry.NewRegistry()
			start := time.Now()
			c, err := tc.reopen(run.dir, reg)
			wall := time.Since(start).Seconds()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			pm, err := telemetry.ParsePrometheus(&buf)
			if err != nil {
				t.Fatal(err)
			}
			v := map[string]float64{}
			for _, name := range []string{"dvecap_recovery_snapshot_load_seconds", "dvecap_recovery_duration_seconds", "dvecap_recovery_events_replayed"} {
				s, err := pm.Sample(name, nil)
				if err != nil {
					t.Fatal(err)
				}
				v[name] = s.Value
			}
			load, replay := v["dvecap_recovery_snapshot_load_seconds"], v["dvecap_recovery_duration_seconds"]
			if v["dvecap_recovery_events_replayed"] == 0 || load <= 0 || replay <= 0 || load+replay > wall {
				t.Fatalf("recovery gauges %v against a reopen of %.6f s: want a replayed tail, load and replay > 0, their sum within the reopen", v, wall)
			}
		})
	}
}
