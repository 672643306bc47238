package director

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dvecap/internal/topology"
	"dvecap/internal/wal"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// recover10kFixture writes, into dir, a data directory shaped like the
// churn_durable benchmark workload's at its kill: 10 000 clients on 40
// servers and 400 zones of a 500-node hierarchical topology, checkpointed
// with their dense delay rows, then a tail of 5 000 single events after the
// checkpoint — 25 % joins, 25 % leaves, 40 % moves, 10 % delay-row
// refreshes — the director left without Close. It returns the config that
// recovers it (DataDir unset).
func recover10kFixture(b *testing.B, dir string) Config {
	b.Helper()
	const servers, zones, clients, tail = 40, 400, 10000, 5000
	rng := xrand.New(17)
	g, err := topology.Hier(rng.Split(), topology.DefaultHier())
	if err != nil {
		b.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	// Capacity for the preload at about 88 % utilisation, as the workload
	// sizes it: a zone of n clients asks n·rt(n), rt(n) = 0.02·(1+n) Mbps.
	lambda := float64(clients) / zones
	total := zones * 0.02 * (2*lambda + lambda*lambda) * 1.25 / 0.88
	cfg := Config{
		ServerNodes:  rng.SampleWithout(dm.N(), servers),
		ServerCaps:   rng.Simplex(servers, total, 0.4*total/servers),
		Zones:        zones,
		Delays:       dm,
		DelayBoundMs: 250,
		FrameRate:    25,
		MessageBytes: 100,
		Algorithm:    "GreZ-GreC",
		Seed:         1,
		DataDir:      dir,
	}
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The checkpoint below covers the preload, so only its snapshot shows
	// in the recovery.
	live := make([]string, 0, clients+tail)
	for c := 0; c < clients; c++ {
		id := fmt.Sprintf("p%05d", c)
		if _, err := d.Join(id, rng.IntN(dm.N()), rng.IntN(zones)); err != nil {
			b.Fatal(err)
		}
		live = append(live, id)
	}
	if _, err := d.Reassign(); err != nil {
		b.Fatal(err)
	}
	if _, err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	row := make([]float64, servers)
	for e, next := 0, 0; e < tail; e++ {
		r := rng.Float64()
		switch {
		case r < 0.25:
			id := fmt.Sprintf("t%05d", next)
			next++
			if _, err := d.Join(id, rng.IntN(dm.N()), rng.IntN(zones)); err != nil {
				b.Fatal(err)
			}
			live = append(live, id)
		case r < 0.5:
			x := rng.IntN(len(live))
			if err := d.Leave(live[x]); err != nil {
				b.Fatal(err)
			}
			live[x] = live[len(live)-1]
			live = live[:len(live)-1]
		case r < 0.9:
			if _, err := d.Move(live[rng.IntN(len(live))], rng.IntN(zones)); err != nil {
				b.Fatal(err)
			}
		default:
			node := rng.IntN(dm.N())
			for i, sn := range cfg.ServerNodes {
				row[i] = dm.RTT(node, sn)
			}
			if _, err := d.UpdateDelays(live[rng.IntN(len(live))], row); err != nil {
				b.Fatal(err)
			}
		}
	}
	cfg.DataDir = ""
	return cfg
}

// BenchmarkDurableRecover10k times New recovering recover10kFixture's data
// directory: snapshot load, journal-tail replay and opening the log, what
// the churn_durable workload's recover_s measures. Each iteration recovers
// an untouched copy; the copy and the Close after are not timed. A registry
// is attached, so the split the recovery gauges record is reported beside
// the total: load-ms/op (dvecap_recovery_snapshot_load_seconds: reading,
// decoding and rebuilding the snapshot's machine), replay-ms/op
// (dvecap_recovery_duration_seconds: the tail replayed and the log opened)
// and snapshot-bytes, the size of the snapshot loaded.
func BenchmarkDurableRecover10k(b *testing.B) {
	src := b.TempDir()
	cfg := recover10kFixture(b, src)
	_, snap, err := wal.LatestSnapshot(src)
	if err != nil {
		b.Fatal(err)
	}
	var load, replay float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.DataDir = filepath.Join(b.TempDir(), "data")
		if err := os.CopyFS(cfg.DataDir, os.DirFS(src)); err != nil {
			b.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		b.StartTimer()
		d, err := New(cfg)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		load += reg.Gauge("dvecap_recovery_snapshot_load_seconds", "").Value()
		replay += reg.Gauge("dvecap_recovery_duration_seconds", "").Value()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(cfg.DataDir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(1e3*load/float64(b.N), "load-ms/op")
	b.ReportMetric(1e3*replay/float64(b.N), "replay-ms/op")
	b.ReportMetric(float64(len(snap)), "snapshot-bytes")
}
