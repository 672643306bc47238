package director

// The director's kill/recover proofs (bit-identity at workers {1,4}, torn
// tail and fail-stop, the crash-point matrix, checkpoint-close-reopen,
// mismatch rejection, the on-disk format pin) run in package dvecap's
// durability_test.go, through the one harness both journaled surfaces
// share. What stays here is the director's HTTP face of durability, the
// recovery of a data directory stored under the coordinate delay model, and
// the fixtures the autoscale durability test shares.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvecap/internal/autoscale"
	"dvecap/internal/core"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

func durDelays(t *testing.T) *topology.DelayMatrix {
	t.Helper()
	g, err := topology.Waxman(xrand.New(5), topology.DefaultWaxman(40))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

// auditDirector fails t with the first divergence the director's machine
// audit (repair.Machine.Audit) finds.
func auditDirector(t *testing.T, d *Director) {
	t.Helper()
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.m.Audit(); err != nil {
		t.Fatal(err)
	}
}

func durDirConfig(dm *topology.DelayMatrix, workers int) Config {
	return Config{
		ServerNodes:     []int{0, 10, 20, 30},
		ServerCaps:      []float64{50, 65, 80, 45},
		Zones:           8,
		Delays:          dm,
		DelayBoundMs:    250,
		FrameRate:       25,
		MessageBytes:    100,
		Seed:            1,
		DriftPQoS:       0.05,
		DriftUtilSpread: 0.3,
		// Traffic term armed: adjacency edits and the maintained cut must
		// survive the crash boundary bit-identically too.
		TrafficWeight: 0.5,
		Workers:       workers,
	}
}

// storedCoordDirector recovers a copy of the version-3 data directory a
// director wrote under the coordinate delay model, auto-checkpointing every
// snapEvery events. Its config names no delay model: the stored one
// supersedes the exact store a fresh director builds.
func storedCoordDirector(t *testing.T, snapEvery int) (*Director, Config) {
	t.Helper()
	cfg := durDirConfig(durDelays(t), 1)
	cfg.DataDir, cfg.SnapshotEvery = filepath.Join(t.TempDir(), "data"), snapEvery
	if err := os.CopyFS(cfg.DataDir, os.DirFS("../../testdata/v3-snapshots/director-coord/data")); err != nil {
		t.Fatal(err)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireCoordStore(t, d)
	return d, cfg
}

func requireCoordStore(t *testing.T, d *Director) {
	t.Helper()
	if p, ok := d.planner().Problem().Delays.(*core.CoordProvider); !ok {
		t.Fatalf("recovered director stores delays in %T, want the stored *core.CoordProvider", p)
	}
}

// TestStoredCoordDirectorKeepsWorking: a director recovered from a data
// directory written under the coordinate delay model stays on it through
// joins, moves, delay updates, a checkpoint and a second recovery, and
// ends where a twin that never restarted ends.
func TestStoredCoordDirectorKeepsWorking(t *testing.T) {
	live, _ := storedCoordDirector(t, 0)
	defer live.Close()
	restarted, cfg := storedCoordDirector(t, 0)
	for i := 0; i < 50; i++ {
		// Every third event joins a client; the next two move it and
		// replace its delay row.
		id := fmt.Sprintf("k%02d", i/3*3)
		for _, d := range []*Director{live, restarted} {
			var err error
			switch i % 3 {
			case 0:
				_, err = d.Join(id, (7*i)%40, i%10)
			case 1:
				_, err = d.Move(id, (3*i)%10)
			case 2:
				row := make([]float64, len(d.Servers()))
				for s := range row {
					row[s] = float64(20 + (13*i+29*s)%300)
				}
				_, err = d.UpdateDelays(id, row)
			}
			if err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
	}
	if _, err := restarted.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := restarted.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	requireCoordStore(t, recovered)
	if got, want := dirStateJSON(t, recovered), dirStateJSON(t, live); got != want {
		t.Fatalf("recovered director diverges from its twin:\n got %s\nwant %s", got, want)
	}
}

// dirStateJSON renders everything decision-relevant about a director:
// the planner's exported state (assignment, evaluator accumulators,
// guard counters, RNG position), every client's info in listing order (dense
// order — the same before and after a recovery), the server and zone
// inventories, the public stats and the ID sequence.
func dirStateJSON(t *testing.T, d *Director) string {
	t.Helper()
	st, err := d.planner().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	infos := d.Snapshot()
	for _, info := range infos {
		if got, err := d.Lookup(info.ID); err != nil || got != info {
			t.Fatalf("Lookup(%q) = %+v, %v; Snapshot lists %+v", info.ID, got, err, info)
		}
	}
	blob, err := json.Marshal(struct {
		Planner   interface{}
		Clients   []ClientInfo
		Servers   []ServerInfo
		Zones     []ZoneInfo
		Adjacency []AdjacencyInfo
		Stats     Stats
		Seq       uint64
		Nodes     []int
	}{st, infos, d.Servers(), d.Zones(), d.Adjacency(), d.Stats(), d.m.Seq(), d.m.ServerNodes()})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestHTTPCheckpoint: POST /v1/checkpoint snapshots a durable director over
// HTTP and is an explicit no-op on a non-durable one.
func TestHTTPCheckpoint(t *testing.T) {
	dm := durDelays(t)
	cfg := durDirConfig(dm, 1)
	cfg.DataDir = t.TempDir()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	c := NewClient(srv.URL)

	for i := 0; i < 5; i++ {
		if _, err := c.Join("", i, i%8); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Durable || res.LSN < 5 {
		t.Fatalf("checkpoint = %+v, want durable with LSN >= 5", res)
	}

	// Checkpointing a non-durable director is an explicit no-op.
	nd, err := New(durDirConfig(dm, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(nd))
	defer srv2.Close()
	res, err = NewClient(srv2.URL).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Durable || res.LSN != 0 {
		t.Fatalf("non-durable checkpoint = %+v, want {0 false}", res)
	}
}

// TestRecoveryLogNamesSkippedSnapshots: a director that recovers from an
// older generation because the newest snapshot is torn says so in its
// "recovered from journal" line, naming the snapshot it skipped and why.
func TestRecoveryLogNamesSkippedSnapshots(t *testing.T) {
	cfg := durDirConfig(durDelays(t), 1)
	cfg.DataDir = t.TempDir()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := d.Join("", i, i%8); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	newest := d.m.NextLSN() - 1
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(cfg.DataDir, fmt.Sprintf("snap-%016d.json", newest))
	if err := os.WriteFile(torn, []byte(`{"version":3,"ls`), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	cfg.Logger = slog.New(slog.NewTextHandler(&log, nil))
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	line := log.String()
	if want := fmt.Sprintf("skipped=\"snapshot %d: ", newest); !strings.Contains(line, "recovered from journal") || !strings.Contains(line, want) {
		t.Fatalf("recovery log %q does not name the skipped snapshot (%s…)", line, want)
	}
	if st := r.Stats(); st.Clients != 10 {
		t.Fatalf("recovered %d clients, want 10", st.Clients)
	}
}

// post sends one raw JSON body and returns the status code.
func post(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestHTTPJournalFailureIs503: a disk fault while journaling is the
// service's problem, not the request's. The faulted POST and every
// mutation after it answer 503 — the director is fail-stopped, nothing more
// reaches the log — while reads keep serving; a closed director answers
// the same way.
func TestHTTPJournalFailureIs503(t *testing.T) {
	cfg := durDirConfig(durDelays(t), 1)
	cfg.DataDir = t.TempDir()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	if got := post(t, srv.URL+"/v1/clients", `{"node":1,"zone":1}`); got != http.StatusCreated {
		t.Fatalf("healthy join: %d", got)
	}

	d.SetCrashHook(func(point string) error {
		if point == "append:torn" {
			return errors.New("disk fault")
		}
		return nil
	})
	head := d.m.NextLSN()
	for _, req := range []struct{ route, body string }{
		{"/v1/clients", `{"node":2,"zone":2}`}, // the faulted append itself
		{"/v1/clients", `{"node":3,"zone":3}`},
		{"/v1/clients/c000001/move", `{"zone":4}`},
		{"/v1/servers", `{"node":5,"capacity_mbps":40}`},
		{"/v1/zones", ``},
		{"/v1/adjacency", `{"zone1":0,"zone2":1,"weight_mbps":2}`},
		{"/v1/reassign", ``},
		{"/v1/checkpoint", ``},
	} {
		if got := post(t, srv.URL+req.route, req.body); got != http.StatusServiceUnavailable {
			t.Errorf("POST %s on a fail-stopped director: %d, want 503", req.route, got)
		}
	}
	if got := d.m.NextLSN(); got != head {
		t.Fatalf("fail-stopped director advanced its log: %d → %d", head, got)
	}
	if st, err := NewClient(srv.URL).Stats(); err != nil || st.Clients != 1 {
		t.Fatalf("stats on a fail-stopped director: %+v, %v", st, err)
	}

	r, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	auditDirector(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(r))
	defer srv2.Close()
	if got := post(t, srv2.URL+"/v1/clients", `{"node":2,"zone":2}`); got != http.StatusServiceUnavailable {
		t.Fatalf("join on a closed director: %d, want 503", got)
	}
}

// TestHTTPRejectsHostileBodies: every JSON route caps its body at
// maxBodyBytes (413) and refuses non-finite numbers (400 — JSON has no NaN
// or Inf, and an out-of-range literal does not decode), with nothing
// journaled either way.
func TestHTTPRejectsHostileBodies(t *testing.T) {
	cfg := durDirConfig(durDelays(t), 1)
	cfg.DataDir = t.TempDir()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnableAutoscale(autoscale.Config{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	if _, err := d.Join("a", 1, 1); err != nil {
		t.Fatal(err)
	}
	head := d.m.NextLSN()

	routes := []string{
		"/v1/clients", "/v1/clients/a/move", "/v1/clients/a/delays", "/v1/servers",
		"/v1/adjacency", "/v1/adjacency/add", "/v1/autoscale/config",
	}
	huge := `{"id":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, route := range routes {
		if got := post(t, srv.URL+route, huge); got != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: %d, want 413", route, len(huge), got)
		}
	}
	for _, v := range []string{"NaN", "Infinity", "-Infinity", "1e999", "-1e999"} {
		for route, body := range map[string]string{
			"/v1/clients/a/delays": `{"rtts_ms":[10,10,10,` + v + `]}`,
			"/v1/servers":          `{"node":5,"capacity_mbps":` + v + `}`,
			"/v1/adjacency":        `{"zone1":0,"zone2":1,"weight_mbps":` + v + `}`,
			"/v1/adjacency/add":    `{"zone1":0,"zone2":1,"delta_mbps":` + v + `}`,
		} {
			if got := post(t, srv.URL+route, body); got != http.StatusBadRequest {
				t.Errorf("POST %s with %s: %d, want 400", route, v, got)
			}
		}
	}
	if got := d.m.NextLSN(); got != head {
		t.Fatalf("rejected bodies were journaled: log head %d → %d", head, got)
	}
}
