package director

// The director's kill/recover proofs (bit-identity at workers {1,4}, torn
// tail and fail-stop, the crash-point matrix, checkpoint-close-reopen,
// mismatch rejection, the on-disk format pin) run in package dvecap's
// durability_test.go, through the one harness both journaled surfaces
// share. What stays here is the director's HTTP face of durability and the
// fixtures the autoscale durability test shares.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dvecap/internal/autoscale"
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

// TestHTTPCheckpointAndRecoveryGate covers the operational surface:
// POST /v1/checkpoint snapshots a durable director over HTTP, and the
// handler sheds everything but the liveness probe with 503 + Retry-After
// while the director is replaying its journal.
func TestHTTPCheckpointAndRecoveryGate(t *testing.T) {
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

	d.recovering.Store(true)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stats during recovery: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during recovery: %d, want 200", resp.StatusCode)
	}
	d.recovering.Store(false)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after recovery cleared: %v", err)
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
