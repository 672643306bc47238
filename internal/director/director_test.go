package director

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dvecap/internal/repair"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

func testDirector(t *testing.T) *Director {
	t.Helper()
	g, err := topology.Waxman(xrand.New(5), topology.DefaultWaxman(40))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		ServerNodes:  []int{0, 10, 20, 30},
		ServerCaps:   []float64{50, 50, 50, 50},
		Zones:        8,
		Delays:       dm,
		DelayBoundMs: 250,
		FrameRate:    25,
		MessageBytes: 100,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	g, _ := topology.Waxman(xrand.New(1), topology.DefaultWaxman(10))
	dm, _ := topology.NewDelayMatrix(g, 500, 0.5)
	base := Config{
		ServerNodes: []int{0, 1}, ServerCaps: []float64{10, 10},
		Zones: 2, Delays: dm, DelayBoundMs: 250, FrameRate: 25, MessageBytes: 100,
	}
	for _, model := range []string{"", "dense", "coord"} {
		c := base
		c.DelayModel = model
		if err := c.Validate(); err != nil {
			t.Fatalf("DelayModel %q: %v", model, err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []func(c *Config){
		func(c *Config) { c.ServerNodes = nil },
		func(c *Config) { c.ServerCaps = c.ServerCaps[:1] },
		func(c *Config) { c.Zones = 0 },
		func(c *Config) { c.Delays = nil },
		func(c *Config) { c.DelayBoundMs = 0 },
		func(c *Config) { c.DelayBoundMs = nan },
		func(c *Config) { c.DelayBoundMs = inf },
		func(c *Config) { c.FrameRate = 0 },
		func(c *Config) { c.FrameRate = nan },
		func(c *Config) { c.MessageBytes = 0 },
		func(c *Config) { c.MessageBytes = inf },
		func(c *Config) { c.DriftPQoS = nan },
		func(c *Config) { c.DriftUtilSpread = inf },
		func(c *Config) { c.SnapshotEvery = -1 },
		func(c *Config) { c.ServerNodes = []int{0, 99} },
		func(c *Config) { c.ServerCaps = []float64{10, -1} },
		func(c *Config) { c.ServerCaps = []float64{10, nan} },
		func(c *Config) { c.ServerCaps = []float64{inf, 10} },
		func(c *Config) { c.DelayModel = "shared" }, // the exact store is "dense"
		func(c *Config) { c.DelayModel = "raw" },
	}
	for i, f := range bad {
		c := base
		c.ServerNodes = append([]int(nil), base.ServerNodes...)
		c.ServerCaps = append([]float64(nil), base.ServerCaps...)
		f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewRejectsUnknownAlgorithm(t *testing.T) {
	g, _ := topology.Waxman(xrand.New(1), topology.DefaultWaxman(10))
	dm, _ := topology.NewDelayMatrix(g, 500, 0.5)
	_, err := New(Config{
		ServerNodes: []int{0}, ServerCaps: []float64{10},
		Zones: 1, Delays: dm, DelayBoundMs: 250, FrameRate: 25, MessageBytes: 100,
		Algorithm: "made-up",
	})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestJoinLookupLeave(t *testing.T) {
	d := testDirector(t)
	info, err := d.Join("alice", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "alice" || info.Zone != 3 {
		t.Fatalf("info = %+v", info)
	}
	if info.Target != d.planner().ZoneHost(3) {
		t.Fatalf("target %d, want zone 3's server %d", info.Target, d.planner().ZoneHost(3))
	}
	got, err := d.Lookup("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Fatalf("lookup %+v != join %+v", got, info)
	}
	if err := d.Leave("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup("alice"); err == nil {
		t.Fatal("lookup after leave succeeded")
	}
	if err := d.Leave("alice"); err == nil {
		t.Fatal("double leave succeeded")
	}
}

func TestJoinGeneratesIDs(t *testing.T) {
	d := testDirector(t)
	a, _ := d.Join("", 1, 0)
	b, _ := d.Join("", 2, 1)
	if a.ID == "" || a.ID == b.ID {
		t.Fatalf("generated IDs broken: %q vs %q", a.ID, b.ID)
	}
}

func TestJoinValidation(t *testing.T) {
	d := testDirector(t)
	if _, err := d.Join("x", -1, 0); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := d.Join("x", 0, 99); err == nil {
		t.Fatal("out-of-range zone accepted")
	}
	if _, err := d.Join("dup", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Join("dup", 1, 1); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestMoveChangesTargetZone(t *testing.T) {
	d := testDirector(t)
	d.Join("bob", 7, 0)
	info, err := d.Move("bob", 5)
	if err != nil {
		t.Fatal(err)
	}
	if info.Zone != 5 {
		t.Fatalf("zone = %d", info.Zone)
	}
	if info.Target != d.planner().ZoneHost(5) {
		t.Fatal("target not updated on move")
	}
	if _, err := d.Move("ghost", 1); err == nil {
		t.Fatal("moving unknown client succeeded")
	}
}

func TestStatsAndReassign(t *testing.T) {
	d := testDirector(t)
	rng := xrand.New(33)
	for i := 0; i < 120; i++ {
		if _, err := d.Join("", rng.IntN(40), rng.IntN(8)); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats()
	if before.Clients != 120 {
		t.Fatalf("clients = %d", before.Clients)
	}
	if before.PQoS < 0 || before.PQoS > 1 {
		t.Fatalf("pQoS = %v", before.PQoS)
	}
	res, err := d.Reassign()
	if err != nil {
		t.Fatal(err)
	}
	if res.PQoS < before.PQoS-1e-9 {
		t.Fatalf("reassign degraded pQoS: %v → %v", before.PQoS, res.PQoS)
	}
	if res.Clients != 120 {
		t.Fatalf("reassign clients = %d", res.Clients)
	}
}

func TestStatsExposeRepairCounters(t *testing.T) {
	d := testDirector(t)
	rng := xrand.New(44)
	ids := make([]string, 0, 60)
	for i := 0; i < 60; i++ {
		info, err := d.Join("", rng.IntN(40), rng.IntN(8))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for i := 0; i < 10; i++ {
		if _, err := d.Move(ids[i], rng.IntN(8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Leave(ids[20]); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.RepairEvents != 60+10+1 {
		t.Fatalf("repair events = %d, want 71", s.RepairEvents)
	}
	if s.FullSolves != 0 {
		t.Fatalf("full solves = %d before any Reassign", s.FullSolves)
	}
	if _, err := d.Reassign(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().FullSolves; got != 1 {
		t.Fatalf("full solves = %d after Reassign, want 1", got)
	}
	auditDirector(t, d) // the planner's O(1) metrics against their rebuild
}

func TestDriftGuardTriggersAutomaticFullSolve(t *testing.T) {
	g, err := topology.Waxman(xrand.New(5), topology.DefaultWaxman(40))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// A tight bound guarantees the empty-world baseline (pQoS 1) decays as
	// clients join, so the armed guard must fire: this pins the
	// Config.DriftPQoS → planner wiring, not just planner behavior.
	d, err := New(Config{
		ServerNodes:  []int{0, 10, 20, 30},
		ServerCaps:   []float64{50, 50, 50, 50},
		Zones:        8,
		Delays:       dm,
		DelayBoundMs: 60,
		FrameRate:    25,
		MessageBytes: 100,
		Seed:         1,
		DriftPQoS:    0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(46)
	for i := 0; i < 300; i++ {
		if _, err := d.Join("", rng.IntN(40), rng.IntN(8)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.PQoS > 1-0.05 {
		t.Fatalf("scenario not tight enough to exercise the guard: %+v", s)
	}
	if s.FullSolves < 1 {
		t.Fatalf("armed drift guard never fired a full solve: %+v", s)
	}
	// After each guard-fired solve the baseline re-anchors, so drift stays
	// bounded near the threshold instead of growing without limit.
	if s.LastDriftPQoS > 0.05+0.01 {
		t.Fatalf("drift not re-anchored after guard fired: %+v", s)
	}
	if s.RepairEvents != 300 {
		t.Fatalf("inconsistent stats: %+v", s)
	}
	cfgBad := Config{
		ServerNodes: []int{0}, ServerCaps: []float64{10},
		Zones: 1, Delays: dm, DelayBoundMs: 250, FrameRate: 25, MessageBytes: 100,
		DriftPQoS: -1,
	}
	if err := cfgBad.Validate(); err == nil {
		t.Fatal("negative DriftPQoS accepted")
	}
}

func TestReassignEmptyDirector(t *testing.T) {
	d := testDirector(t)
	res, err := d.Reassign()
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != 0 {
		t.Fatalf("empty reassign clients = %d", res.Clients)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	d := testDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	c := NewClient(srv.URL)

	info, err := c.Join("carol", 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "carol" {
		t.Fatalf("info = %+v", info)
	}
	got, err := c.Lookup("carol")
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Fatalf("lookup mismatch: %+v vs %+v", got, info)
	}
	moved, err := c.Move("carol", 6)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Zone != 6 {
		t.Fatalf("moved zone = %d", moved.Zone)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clients != 1 {
		t.Fatalf("stats clients = %d", stats.Clients)
	}
	re, err := c.Reassign()
	if err != nil {
		t.Fatal(err)
	}
	if re.Clients != 1 {
		t.Fatalf("reassign clients = %d", re.Clients)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || snap[0].ID != "carol" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if err := c.Leave("carol"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("carol"); err == nil {
		t.Fatal("lookup after leave succeeded over HTTP")
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	d := testDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	c := NewClient(srv.URL)

	if _, err := c.Lookup("nobody"); err == nil {
		t.Fatal("lookup of unknown client succeeded")
	}
	if err := c.Leave("nobody"); err == nil {
		t.Fatal("leave of unknown client succeeded")
	}
	if _, err := c.Move("nobody", 1); err == nil {
		t.Fatal("move of unknown client succeeded")
	}
	if _, err := c.Join("bad", 0, 999); err == nil {
		t.Fatal("join with bad zone succeeded")
	}
}

func TestAttachPrefersForwardingWhenDirectMissesBound(t *testing.T) {
	// Hand-built delay matrix: node 0 and 1 are servers, client at node 2
	// is 400ms from server 0 (its target) but 100ms from server 1, and the
	// servers are 100ms apart (discounted to 50): forwarded delay 150.
	rtt := [][]float64{
		{0, 100, 400},
		{100, 0, 100},
		{400, 100, 0},
	}
	dm, err := topology.NewDelayMatrixFromRTT(rtt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		ServerNodes:  []int{0, 1},
		ServerCaps:   []float64{100, 100},
		Zones:        1,
		Delays:       dm,
		DelayBoundMs: 250,
		FrameRate:    25,
		MessageBytes: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Zone 0's round-robin target is server 0.
	info, err := d.Join("far", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Target != 0 {
		t.Fatalf("target = %d", info.Target)
	}
	if info.Contact != 1 {
		t.Fatalf("contact = %d, want forwarding via server 1", info.Contact)
	}
	if !info.QoS {
		t.Fatalf("forwarded client should have QoS: %+v", info)
	}
	if info.DelayMs != 150 {
		t.Fatalf("delay = %v, want 150", info.DelayMs)
	}
}

func TestProblemSnapshotEndpoint(t *testing.T) {
	d := testDirector(t)
	rng := xrand.New(70)
	for i := 0; i < 30; i++ {
		if _, err := d.Join("", rng.IntN(40), rng.IntN(8)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/problem")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var spec repair.ClusterJSON
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Clients) != 30 || len(spec.Zones) != 8 || len(spec.Servers) != 4 {
		t.Fatalf("spec shape: %d/%d/%d", len(spec.Clients), len(spec.Zones), len(spec.Servers))
	}
	// The spec is the live problem under the director's IDs: servers and
	// zones as listed, clients in Snapshot order with their delay rows.
	p, snap := d.ProblemSnapshot(), d.Snapshot()
	if spec.DelayBoundMs != p.D || !reflect.DeepEqual(spec.ServerRTTsMs, p.SS) {
		t.Fatalf("bound %v / inter-server matrix %v, want %v / %v", spec.DelayBoundMs, spec.ServerRTTsMs, p.D, p.SS)
	}
	for i, s := range spec.Servers {
		if s.ID != fmt.Sprintf("s%d", i) || s.CapacityMbps != p.ServerCaps[i] {
			t.Fatalf("server %d: %+v", i, s)
		}
	}
	for z, id := range spec.Zones {
		if id != fmt.Sprintf("z%d", z) {
			t.Fatalf("zone %d named %q", z, id)
		}
	}
	for j, c := range spec.Clients {
		if c.ID != snap[j].ID || c.Zone != snap[j].ZoneID || c.BandwidthMbps != p.ClientRT[j] || !reflect.DeepEqual(c.RTTRowMs, p.CS[j]) {
			t.Fatalf("client %d: %+v, want %+v with bandwidth %v and row %v", j, c, snap[j], p.ClientRT[j], p.CS[j])
		}
	}
}

// statusCase is one request of TestHTTPStatusCodes, which the director
// seeded with client "alice" in zone 2 answers with want.
type statusCase struct {
	name, method, path, body string
	want                     int
}

// statusCases are TestHTTPStatusCodes' requests, in order; FuzzHTTP seeds
// its corpus from them.
func statusCases() []statusCase {
	return []statusCase{
		{"healthz ok", http.MethodGet, "/v1/healthz", "", http.StatusOK},
		{"stats wrong method", http.MethodPost, "/v1/stats", "", http.StatusMethodNotAllowed},
		{"problem wrong method", http.MethodPost, "/v1/problem", "", http.StatusMethodNotAllowed},
		{"reassign wrong method", http.MethodGet, "/v1/reassign", "", http.StatusMethodNotAllowed},
		{"clients wrong method", http.MethodDelete, "/v1/clients", "", http.StatusMethodNotAllowed},
		{"join malformed json", http.MethodPost, "/v1/clients", "{", http.StatusBadRequest},
		{"join invalid zone", http.MethodPost, "/v1/clients", `{"node":0,"zone":999}`, http.StatusBadRequest},
		{"join invalid node", http.MethodPost, "/v1/clients", `{"node":-1,"zone":0}`, http.StatusBadRequest},
		{"join duplicate id", http.MethodPost, "/v1/clients", `{"id":"alice","node":0,"zone":0}`, http.StatusBadRequest},
		{"missing client id", http.MethodGet, "/v1/clients/", "", http.StatusBadRequest},
		{"lookup unknown client", http.MethodGet, "/v1/clients/nobody", "", http.StatusNotFound},
		{"lookup wrong method", http.MethodPost, "/v1/clients/alice", "", http.StatusMethodNotAllowed},
		{"delete unknown client", http.MethodDelete, "/v1/clients/nobody", "", http.StatusNotFound},
		{"move unknown client", http.MethodPost, "/v1/clients/nobody/move", `{"zone":1}`, http.StatusNotFound},
		{"move invalid zone", http.MethodPost, "/v1/clients/alice/move", `{"zone":999}`, http.StatusBadRequest},
		{"move malformed json", http.MethodPost, "/v1/clients/alice/move", "{", http.StatusBadRequest},
		{"move wrong method", http.MethodGet, "/v1/clients/alice/move", "", http.StatusMethodNotAllowed},
		{"delays unknown client", http.MethodPost, "/v1/clients/nobody/delays", `{"rtts_ms":[1,2,3,4]}`, http.StatusNotFound},
		{"delays wrong row length", http.MethodPost, "/v1/clients/alice/delays", `{"rtts_ms":[1]}`, http.StatusBadRequest},
		{"delays negative rtt", http.MethodPost, "/v1/clients/alice/delays", `{"rtts_ms":[-1,2,3,4]}`, http.StatusBadRequest},
		{"delays malformed json", http.MethodPost, "/v1/clients/alice/delays", "{", http.StatusBadRequest},
		{"delays wrong method", http.MethodGet, "/v1/clients/alice/delays", "", http.StatusMethodNotAllowed},
		{"unknown client subroute", http.MethodGet, "/v1/clients/alice/bogus", "", http.StatusNotFound},
		{"unknown route", http.MethodGet, "/v1/bogus", "", http.StatusNotFound},
		{"servers list ok", http.MethodGet, "/v1/servers", "", http.StatusOK},
		{"servers wrong method", http.MethodPut, "/v1/servers", "", http.StatusMethodNotAllowed},
		{"add server malformed json", http.MethodPost, "/v1/servers", "{", http.StatusBadRequest},
		{"add server bad node", http.MethodPost, "/v1/servers", `{"node":-1,"capacity_mbps":10}`, http.StatusBadRequest},
		{"add server bad capacity", http.MethodPost, "/v1/servers", `{"node":0,"capacity_mbps":0}`, http.StatusBadRequest},
		// A non-integer segment is a stable ID now; an unknown one is a 404.
		{"delete server non-integer", http.MethodDelete, "/v1/servers/abc", "", http.StatusNotFound},
		{"delete loaded server by id", http.MethodDelete, "/v1/servers/s0", "", http.StatusConflict},
		{"drain unknown server id", http.MethodPost, "/v1/servers/s99/drain", "", http.StatusNotFound},
		{"delete unknown server", http.MethodDelete, "/v1/servers/99", "", http.StatusNotFound},
		{"delete loaded server", http.MethodDelete, "/v1/servers/0", "", http.StatusConflict},
		{"delete server wrong method", http.MethodGet, "/v1/servers/0", "", http.StatusMethodNotAllowed},
		{"drain unknown server", http.MethodPost, "/v1/servers/99/drain", "", http.StatusNotFound},
		{"drain wrong method", http.MethodGet, "/v1/servers/0/drain", "", http.StatusMethodNotAllowed},
		{"uncordon unknown server", http.MethodPost, "/v1/servers/99/uncordon", "", http.StatusNotFound},
		{"unknown server subroute", http.MethodPost, "/v1/servers/0/bogus", "", http.StatusNotFound},
		{"zones list ok", http.MethodGet, "/v1/zones", "", http.StatusOK},
		{"zones wrong method", http.MethodDelete, "/v1/zones", "", http.StatusMethodNotAllowed},
		{"delete zone non-integer", http.MethodDelete, "/v1/zones/abc", "", http.StatusNotFound},
		{"delete populated zone by id", http.MethodDelete, "/v1/zones/z2", "", http.StatusConflict},
		{"join by zone id", http.MethodPost, "/v1/clients", `{"id":"alice","node":0,"zone":"z0"}`, http.StatusBadRequest},
		{"join unknown zone id", http.MethodPost, "/v1/clients", `{"node":0,"zone":"z99"}`, http.StatusBadRequest},
		{"move unknown zone id", http.MethodPost, "/v1/clients/alice/move", `{"zone":"nowhere"}`, http.StatusBadRequest},
		{"adjacency unknown zone id", http.MethodPost, "/v1/adjacency", `{"zone1":"z0","zone2":"z99","weight_mbps":1}`, http.StatusNotFound},
		{"adjacency self edge by id and index", http.MethodPost, "/v1/adjacency", `{"zone1":"z3","zone2":3,"weight_mbps":1}`, http.StatusBadRequest},
		{"delete unknown zone", http.MethodDelete, "/v1/zones/99", "", http.StatusNotFound},
		{"delete populated zone", http.MethodDelete, "/v1/zones/2", "", http.StatusConflict},
		{"delete zone wrong method", http.MethodGet, "/v1/zones/2", "", http.StatusMethodNotAllowed},
		{"adjacency list ok", http.MethodGet, "/v1/adjacency", "", http.StatusOK},
		{"adjacency wrong method", http.MethodDelete, "/v1/adjacency", "", http.StatusMethodNotAllowed},
		{"adjacency malformed json", http.MethodPost, "/v1/adjacency", "{", http.StatusBadRequest},
		{"adjacency unknown zone", http.MethodPost, "/v1/adjacency", `{"zone1":0,"zone2":99,"weight_mbps":1}`, http.StatusNotFound},
		{"adjacency self edge", http.MethodPost, "/v1/adjacency", `{"zone1":3,"zone2":3,"weight_mbps":1}`, http.StatusBadRequest},
		{"adjacency negative weight", http.MethodPost, "/v1/adjacency", `{"zone1":0,"zone2":1,"weight_mbps":-1}`, http.StatusBadRequest},
		{"adjacency add wrong method", http.MethodGet, "/v1/adjacency/add", "", http.StatusMethodNotAllowed},
		{"adjacency add zero delta", http.MethodPost, "/v1/adjacency/add", `{"zone1":0,"zone2":1,"delta_mbps":0}`, http.StatusBadRequest},
		{"adjacency add unknown zone", http.MethodPost, "/v1/adjacency/add", `{"zone1":-1,"zone2":1,"delta_mbps":1}`, http.StatusNotFound},
		// Required fields: absent, null or "" is a 400, never zone or node 0.
		{"move without zone", http.MethodPost, "/v1/clients/alice/move", `{}`, http.StatusBadRequest},
		{"move empty zone", http.MethodPost, "/v1/clients/alice/move", `{"zone":""}`, http.StatusBadRequest},
		{"move null zone", http.MethodPost, "/v1/clients/alice/move", `{"zone":null}`, http.StatusBadRequest},
		{"join without node or zone", http.MethodPost, "/v1/clients", `{"id":"b"}`, http.StatusBadRequest},
		{"join null node", http.MethodPost, "/v1/clients", `{"id":"b","node":null,"zone":0}`, http.StatusBadRequest},
		{"join without zone", http.MethodPost, "/v1/clients", `{"id":"b","node":0}`, http.StatusBadRequest},
		{"add server without node", http.MethodPost, "/v1/servers", `{"capacity_mbps":50}`, http.StatusBadRequest},
		{"adjacency without zone2", http.MethodPost, "/v1/adjacency", `{"zone1":"z3","weight_mbps":1}`, http.StatusBadRequest},
		{"adjacency without weight", http.MethodPost, "/v1/adjacency", `{"zone1":"z0","zone2":"z1"}`, http.StatusBadRequest},
		{"adjacency add without delta", http.MethodPost, "/v1/adjacency/add", `{"zone1":"z0","zone2":"z1","delta_mbps":null}`, http.StatusBadRequest},
		// Unknown fields and trailing bytes.
		{"adjacency misspelled weight", http.MethodPost, "/v1/adjacency", `{"zone1":"z0","zone2":"z1","weight":7}`, http.StatusBadRequest},
		{"adjacency with delta", http.MethodPost, "/v1/adjacency", `{"zone1":"z0","zone2":"z1","delta_mbps":7}`, http.StatusBadRequest},
		{"adjacency add with weight", http.MethodPost, "/v1/adjacency/add", `{"zone1":"z0","zone2":"z1","weight_mbps":7}`, http.StatusBadRequest},
		{"adjacency weight and delta", http.MethodPost, "/v1/adjacency", `{"zone1":"z0","zone2":"z1","weight_mbps":5,"delta_mbps":7}`, http.StatusBadRequest},
		{"move unknown field", http.MethodPost, "/v1/clients/alice/move", `{"zone":"z2","zon":"z3"}`, http.StatusBadRequest},
		{"move trailing bytes", http.MethodPost, "/v1/clients/alice/move", `{"zone":"z2"} trailing`, http.StatusBadRequest},
		{"move second value", http.MethodPost, "/v1/clients/alice/move", `{"zone":"z2"}{}`, http.StatusBadRequest},
		// A literal index still means that zone.
		{"move to zone index 0", http.MethodPost, "/v1/clients/alice/move", `{"zone":0}`, http.StatusOK},
		{"move to zone \"0\"", http.MethodPost, "/v1/clients/alice/move", `{"zone":"0"} `, http.StatusOK},
	}
}

// TestHTTPStatusCodes pins the status-code discipline of every /v1 route:
// 405 for a known route with the wrong method, 400 for malformed or
// invalid bodies, 404 for unknown clients (sentinel-driven, not message
// sniffing) and unknown routes.
func TestHTTPStatusCodes(t *testing.T) {
	d := testDirector(t)
	if _, err := d.Join("alice", 12, 2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	for _, tc := range statusCases() {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			// Error responses produced by the handler carry a JSON body with
			// an "error" field (the mux's own unknown-route 404 is plain text).
			if tc.want >= 400 && resp.Header.Get("Content-Type") == "application/json" {
				var ae struct {
					Error string `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Error == "" {
					t.Fatalf("%s %s: malformed error body (decode err %v)", tc.method, tc.path, err)
				}
			}
		})
	}

	// The probe traffic above must not have mutated state: the director
	// still holds exactly the one seeded client.
	if st := d.Stats(); st.Clients != 1 {
		t.Fatalf("error-path probes changed population: %d clients", st.Clients)
	}
}

// TestUnsetRefIsRefused: the zero Ref and ID("") address nothing, in the
// Go API as over HTTP, while Index(0) and "0" still address zone 0.
func TestUnsetRefIsRefused(t *testing.T) {
	d := testDirector(t)
	if _, err := d.Join("alice", 12, 2); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Ref{{}, ID(""), ParseRef("")} {
		if _, err := d.MoveRef("alice", r); err == nil {
			t.Fatalf("MoveRef(%#v) moved the client", r)
		}
		if err := d.RemoveServer(r); !errors.Is(err, ErrUnknownServer) {
			t.Fatalf("RemoveServer(%#v) = %v, want ErrUnknownServer", r, err)
		}
	}
	for _, r := range []Ref{Index(0), ParseRef("0")} {
		if info, err := d.MoveRef("alice", r); err != nil || info.ZoneID != "z0" {
			t.Fatalf("MoveRef(%#v) = %+v, %v; want zone z0", r, info, err)
		}
	}
}

// TestHTTPDelaysRoundTrip drives POST /v1/clients/{id}/delays through the
// Go binding and asserts the acceptance property of the endpoint: the
// refresh is applied (the client's delay reflects the posted row, and
// Lookup agrees) by the incremental repair path — delay_updates
// increments, full_solves does not.
func TestHTTPDelaysRoundTrip(t *testing.T) {
	d := testDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	c := NewClient(srv.URL)

	if _, err := c.Join("alice", 12, 2); err != nil {
		t.Fatal(err)
	}
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// A uniform row keeps the expectation exact: every contact choice
	// yields a direct 42 ms attach, well inside the 250 ms bound.
	rtts := []float64{42, 42, 42, 42}
	info, err := c.UpdateDelays("alice", rtts)
	if err != nil {
		t.Fatal(err)
	}
	if info.DelayMs != 42 || !info.QoS {
		t.Fatalf("after refresh: %+v, want direct 42 ms in bound", info)
	}
	got, err := c.Lookup("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Fatalf("lookup disagrees with update response: %+v vs %+v", got, info)
	}

	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.DelayUpdates != before.DelayUpdates+1 {
		t.Fatalf("delay_updates %d → %d, want +1", before.DelayUpdates, after.DelayUpdates)
	}
	if after.FullSolves != before.FullSolves {
		t.Fatalf("delay refresh triggered a full re-solve (%d → %d)", before.FullSolves, after.FullSolves)
	}
}

// TestHTTPClientIDsRoundTrip: POST /v1/clients takes any caller-chosen ID in
// its JSON body, so every ID it accepts must stay addressable in a URL — the
// binding escapes the path segment and the handler splits the escaped path.
// Each ID goes join → lookup → move → delays → delete through the Go client,
// and its requests are counted under the {id} route patterns, not "other".
func TestHTTPClientIDsRoundTrip(t *testing.T) {
	d, reg := telemetryDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	c := NewClient(srv.URL)

	ids := []string{"guild/7", "a b", "x?y", "x#y", "100%", "a/b/move", "玩家-1", "plain"}
	for _, id := range ids {
		joined, err := c.Join(id, 12, 2)
		if err != nil {
			t.Fatalf("join %q: %v", id, err)
		}
		if joined.ID != id {
			t.Fatalf("join %q registered %q", id, joined.ID)
		}
		if got, err := c.Lookup(id); err != nil || got != joined {
			t.Fatalf("lookup %q: %+v, %v; want %+v", id, got, err, joined)
		}
		if moved, err := c.Move(id, 5); err != nil || moved.ID != id || moved.Zone != 5 {
			t.Fatalf("move %q: %+v, %v", id, moved, err)
		}
		if upd, err := c.UpdateDelays(id, []float64{42, 42, 42, 42}); err != nil || upd.ID != id || upd.DelayMs != 42 {
			t.Fatalf("delays %q: %+v, %v", id, upd, err)
		}
		if err := c.Leave(id); err != nil {
			t.Fatalf("leave %q: %v", id, err)
		}
		if _, err := d.Lookup(id); !errors.Is(err, ErrUnknownClient) {
			t.Fatalf("%q still registered after DELETE: %v", id, err)
		}
	}
	// The dot segments cannot be one URL path segment (routers clean them
	// away), so admission refuses them — 400, nothing registered — instead of
	// accepting a client no route can reach.
	for _, id := range []string{".", ".."} {
		if _, err := c.Join(id, 12, 2); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
			t.Fatalf("join %q: %v, want HTTP 400", id, err)
		}
		if _, err := d.Lookup(id); !errors.Is(err, ErrUnknownClient) {
			t.Fatalf("%q registered despite the refusal: %v", id, err)
		}
	}
	n := uint64(len(ids))
	for labels, want := range map[[3]string]uint64{
		{"/v1/clients/{id}", "GET", "200"}:         n,
		{"/v1/clients/{id}", "DELETE", "204"}:      n,
		{"/v1/clients/{id}/move", "POST", "200"}:   n,
		{"/v1/clients/{id}/delays", "POST", "200"}: n,
	} {
		if got := reg.Counter("dvecap_http_requests_total", "",
			"route", labels[0], "method", labels[1], "code", labels[2]).Value(); got != want {
			t.Errorf("http_requests%v = %d, want %d", labels, got, want)
		}
	}
}

// TestSnapshotOrderSurvivesRecovery: Snapshot lists clients in the planner's
// dense order, which a leave reshuffles (the last client takes the vacated
// slot) — so it is neither registration order nor sorted. A director
// recovered from a checkpoint must list them position by position like one
// that never stopped, and client j of ProblemSnapshot must be Snapshot()[j].
func TestSnapshotOrderSurvivesRecovery(t *testing.T) {
	drive := func(d *Director, checkpoint bool) {
		for i := 0; i < 6; i++ {
			if _, err := d.Join(fmt.Sprintf("a%d", i), i, i%8); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{"a1", "a3"} {
			if err := d.Leave(id); err != nil {
				t.Fatal(err)
			}
		}
		if checkpoint {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := d.Join(fmt.Sprintf("b%d", i), 10+i, (i+3)%8); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Leave("a0"); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(d *Director) (out []string) {
		snap, p := d.Snapshot(), d.ProblemSnapshot()
		for j, info := range snap {
			if p.ClientZones[j] != info.Zone {
				t.Fatalf("client %d of ProblemSnapshot is in zone %d, Snapshot()[%d] = %+v", j, p.ClientZones[j], j, info)
			}
			out = append(out, info.ID)
		}
		return out
	}
	dm := durDelays(t)
	control, err := New(durDirConfig(dm, 1))
	if err != nil {
		t.Fatal(err)
	}
	drive(control, false)
	cfg := durDirConfig(dm, 1)
	cfg.DataDir = t.TempDir()
	durable, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(durable, true)
	// Kill (no Close) and recover: checkpoint plus a four-event tail.
	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	auditDirector(t, recovered)
	want := ids(control)
	if got := ids(durable); !reflect.DeepEqual(got, want) {
		t.Fatalf("durable director lists %v, control %v", got, want)
	}
	if got := ids(recovered); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered director lists %v, the uninterrupted control %v", got, want)
	}
	if sort.StringsAreSorted(want) {
		t.Fatalf("the script left the listing in registration order (%v); it cannot tell the orders apart", want)
	}
}

func TestJoinDuplicateIsSentinel(t *testing.T) {
	d := testDirector(t)
	if _, err := d.Join("alice", 12, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Join("alice", 13, 3); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("duplicate join: err = %v, want ErrDuplicateClient", err)
	}
}

// TestHTTPTopologyRoundTrip drives the full rolling-deploy protocol over
// the HTTP surface through the Go client binding: grow the fleet, grow
// the world, drain a server (asserting evacuation without a full
// re-solve), uncordon it, drain again, and retire it.
func TestHTTPTopologyRoundTrip(t *testing.T) {
	d := testDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	cl := NewClient(srv.URL)

	for i := 0; i < 12; i++ {
		if _, err := cl.Join("", i%40, i%8); err != nil {
			t.Fatal(err)
		}
	}

	servers, err := cl.Servers()
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 4 {
		t.Fatalf("%d servers, want 4", len(servers))
	}
	added, err := cl.AddServer(35, 80)
	if err != nil {
		t.Fatal(err)
	}
	if added.ID != "s4" || added.Server != 4 || added.Node != 35 || added.CapacityMbps != 80 {
		t.Fatalf("added server = %+v", added)
	}
	zone, err := cl.AddZone()
	if err != nil {
		t.Fatal(err)
	}
	if zone.ID != "z8" || zone.Zone != 8 {
		t.Fatalf("added zone = %+v, want z8 at index 8", zone)
	}
	if info, err := cl.JoinRef("newcomer", 17, ID(zone.ID)); err != nil || info.Zone != 8 || info.ZoneID != "z8" {
		t.Fatalf("join by zone ID: %+v, %v", info, err)
	}

	statsBefore, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if statsBefore.Servers != 5 || statsBefore.Zones != 9 {
		t.Fatalf("stats topology = %d servers / %d zones, want 5/9", statsBefore.Servers, statsBefore.Zones)
	}

	drained, err := cl.DrainServer(ID("s0"))
	if err != nil {
		t.Fatal(err)
	}
	// Incremental load maintenance leaves float dust on an emptied server,
	// so the load check is a tolerance, not equality.
	if !drained.Draining || drained.Zones != 0 || drained.LoadMbps > 1e-9 || drained.LoadMbps < -1e-9 {
		t.Fatalf("drained server = %+v, want empty and draining", drained)
	}
	statsAfter, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if statsAfter.FullSolves != statsBefore.FullSolves {
		t.Fatalf("drain triggered a full re-solve (%d → %d)", statsBefore.FullSolves, statsAfter.FullSolves)
	}
	if statsAfter.Draining != 1 {
		t.Fatalf("stats draining = %d, want 1", statsAfter.Draining)
	}
	// Every client is off the drained server.
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range snap {
		if ci.Contact == 0 || ci.Target == 0 {
			t.Fatalf("client %s still touches drained server 0: %+v", ci.ID, ci)
		}
	}

	// The deprecated index alias still reaches the same server.
	if _, err := cl.UncordonServer(Index(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DrainServer(Index(0)); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveServer(ID("s0")); err != nil {
		t.Fatal(err)
	}
	servers, err = cl.Servers()
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 4 {
		t.Fatalf("%d servers after removal, want 4", len(servers))
	}
	// The old last server (node 35) was renumbered to index 0 and kept its ID.
	if servers[0].Node != 35 || servers[0].ID != "s4" {
		t.Fatalf("renumbered server 0 = %+v, want s4 on node 35", servers[0])
	}
	if _, err := cl.DrainServer(ID("s0")); err == nil {
		t.Fatal("the removed server's ID still resolves")
	}

	// Retire an empty zone: empty the added zone first by moving its one
	// client out, then delete it.
	if _, err := cl.Move("newcomer", 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.RetireZone(ID(zone.ID)); err != nil {
		t.Fatal(err)
	}
	zones, err := cl.Zones()
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 8 {
		t.Fatalf("%d zones after retire, want 8", len(zones))
	}

	// The mutated deployment still serves the ordinary churn surface.
	if _, err := cl.Join("after-topo", 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Reassign(); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyChurnRaceStress hammers a DURABLE director with concurrent
// lookup, stats, snapshot and inventory reads plus an explicit checkpointer
// while a writer cycles server add / drain / uncordon / remove, zone add /
// retire and client churn, auto-checkpointing as it goes — the -race CI job
// turns any locking gap into a failure. Readers run under the state lock
// alone while the writer journals and snapshots render under the sequencer
// alone, so this is also the proof that rendering only reads.
func TestTopologyChurnRaceStress(t *testing.T) {
	cfg := durDirConfig(durDelays(t), 1)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = 7
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 20; i++ {
		if _, err := d.Join("", i%40, i%8); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					d.Stats()
				case 1:
					d.Servers()
				case 2:
					d.Zones()
				case 3:
					d.Snapshot()
				case 4:
					if _, err := d.Lookup("c000001"); err != nil {
						t.Error(err)
						return
					}
				default:
					d.ProblemSnapshot()
				}
			}
		}(r)
	}
	// One explicit checkpoint per writer cycle, racing the writer's own.
	checkpoint := make(chan struct{}, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range checkpoint {
			if _, err := d.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for cycle := 0; cycle < 25; cycle++ {
		info, err := d.AddServer(cycle%40, 60)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Join("", (cycle*7)%40, cycle%8); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddZone(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.DrainServer(Index(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.UncordonServer(Index(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.DrainServer(ID(info.ID)); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveServer(ID(info.ID)); err != nil {
			t.Fatal(err)
		}
		if err := d.RetireZone(Index(d.Stats().Zones - 1)); err != nil {
			t.Fatal(err)
		}
		select {
		case checkpoint <- struct{}{}:
		default:
		}
	}
	close(stop)
	close(checkpoint)
	wg.Wait()
	if st := d.Stats(); st.Servers != 4 || st.Zones != 8 {
		t.Fatalf("topology did not return to 4 servers / 8 zones: %+v", st)
	}
}

// TestHTTPAdjacencyRoundTrip drives the interaction-graph CRUD through
// the Go binding: set installs at an absolute weight, add accumulates,
// set-to-zero removes, the listing stays canonical, and the traffic
// estimate surfaces in GET /v1/stats.
func TestHTTPAdjacencyRoundTrip(t *testing.T) {
	d := testDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	api := NewClient(srv.URL)

	if edges, err := api.Adjacency(); err != nil || len(edges) != 0 {
		t.Fatalf("fresh director lists %v (%v), want no edges", edges, err)
	}
	// Arguments arrive unordered; the edge must come back canonical.
	info, err := api.SetAdjacency(ID("z5"), ID("z2"), 3.5)
	if err != nil {
		t.Fatal(err)
	}
	if info.Zone1 != 2 || info.Zone2 != 5 || info.Zone1ID != "z2" || info.Zone2ID != "z5" || info.WeightMbps != 3.5 {
		t.Fatalf("set returned %+v, want {2 5 3.5 z2 z5}", info)
	}
	if info, err = api.AddAdjacencyWeight(Index(2), ID("z5"), 1.5); err != nil || info.WeightMbps != 5 {
		t.Fatalf("add returned %+v (%v), want weight 5", info, err)
	}
	if _, err = api.SetAdjacency(Index(0), Index(1), 2); err != nil {
		t.Fatal(err)
	}
	edges, err := api.Adjacency()
	if err != nil {
		t.Fatal(err)
	}
	want := []AdjacencyInfo{{0, 1, 2, "z0", "z1"}, {2, 5, 5, "z2", "z5"}}
	if len(edges) != len(want) || edges[0] != want[0] || edges[1] != want[1] {
		t.Fatalf("adjacency = %v, want %v", edges, want)
	}

	st, err := api.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.AdjacencyEdges != 2 || st.AdjacencyEdits != 3 {
		t.Fatalf("stats report %d edges / %d edits, want 2 / 3", st.AdjacencyEdges, st.AdjacencyEdits)
	}
	// testDirector runs delay-only (weight 0): the cut weight is still
	// observable, the objective term is not.
	if st.TrafficWeight != 0 || st.TrafficCost != 0 {
		t.Fatalf("delay-only director reports weight %v cost %v, want 0/0", st.TrafficWeight, st.TrafficCost)
	}
	if st.TrafficCutMbps < 0 || st.TrafficCutMbps > 7 {
		t.Fatalf("cut weight %v outside [0, total weight 7]", st.TrafficCutMbps)
	}

	// Set-to-zero removes.
	if info, err = api.SetAdjacency(Index(1), Index(0), 0); err != nil || info.WeightMbps != 0 {
		t.Fatalf("remove returned %+v (%v), want weight 0", info, err)
	}
	if edges, err = api.Adjacency(); err != nil || len(edges) != 1 {
		t.Fatalf("after removal adjacency = %v (%v), want one edge", edges, err)
	}
}

// TestAdjacencyExportsWithProblem asserts the problem snapshot and the
// GET /v1/problem spec carry the interaction graph, so offline analysis
// prices the snapshot exactly as the live planner does.
func TestAdjacencyExportsWithProblem(t *testing.T) {
	d := testDirector(t)
	if _, err := d.Join("a", 12, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetAdjacency(Index(2), ID("z3"), 4); err != nil {
		t.Fatal(err)
	}
	p := d.ProblemSnapshot()
	if p.Adjacency == nil || p.Adjacency.NumEdges() != 1 || p.Adjacency.Weight(2, 3) != 4 {
		t.Fatalf("problem snapshot lost the adjacency graph: %+v", p.Adjacency)
	}
	rec := httptest.NewRecorder()
	Handler(d).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/problem", nil))
	var spec repair.ClusterJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &spec); err != nil {
		t.Fatalf("GET /v1/problem: %v (%d %s)", err, rec.Code, rec.Body)
	}
	if want := []repair.AdjacencyJSON{{Zone1: "z2", Zone2: "z3", WeightMbps: 4}}; !reflect.DeepEqual(spec.ZoneAdjacency, want) {
		t.Fatalf("spec adjacency %+v, want %+v", spec.ZoneAdjacency, want)
	}
}
