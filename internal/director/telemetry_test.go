package director

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dvecap/internal/topology"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// TestRouteLabels serves (method, path) requests through Handler and checks
// the route each one is counted and traced under: the path of the pattern
// the mux matched, or "other" for the requests the mux answers itself.
func TestRouteLabels(t *testing.T) {
	d, reg := telemetryDirector(t)
	var trace bytes.Buffer
	d.trace = telemetry.NewTracer(&trace)
	h := Handler(d)
	cases := []struct{ method, path, want string }{
		{"GET", "/v1/healthz", "/v1/healthz"},
		{"GET", "/v1/readyz", "/v1/readyz"},
		{"GET", "/metrics", "/metrics"},
		{"GET", "/v1/clients", "/v1/clients"},
		{"GET", "/v1/clients/c000017", "/v1/clients/{id}"},
		{"GET", "/v1/clients/", "/v1/clients/{id}"},
		{"POST", "/v1/clients/x/move", "/v1/clients/{id}/move"},
		{"POST", "/v1/clients/x/delays", "/v1/clients/{id}/delays"},
		{"GET", "/v1/clients/x/bogus", "other"},
		{"DELETE", "/v1/servers/3", "/v1/servers/{id}"},
		{"POST", "/v1/servers/3/drain", "/v1/servers/{id}/drain"},
		{"POST", "/v1/servers/3/uncordon", "/v1/servers/{id}/uncordon"},
		{"DELETE", "/v1/zones/7", "/v1/zones/{id}"},
		{"DELETE", "/v1/zones/7/extra", "other"},
		{"GET", "/v1/adjacency", "/v1/adjacency"},
		{"POST", "/v1/adjacency/add", "/v1/adjacency/add"},
		{"GET", "/v1/autoscale", "/v1/autoscale"},
		{"POST", "/v1/autoscale/config", "/v1/autoscale/config"},
		{"POST", "/v1/autoscale/pause", "/v1/autoscale/pause"},
		{"POST", "/v1/autoscale/resume", "/v1/autoscale/resume"},
		{"POST", "/v1/autoscale/tick", "/v1/autoscale/tick"},
		{"POST", "/v1/autoscale/bogus", "other"},
		{"POST", "/v1/autoscale/tick/x", "other"},
		{"GET", "/v1/clients/guild%2F7", "/v1/clients/{id}"},
		{"POST", "/v1/clients/a%20b/move", "/v1/clients/{id}/move"},
		{"GET", "/favicon.ico", "other"},
		{"GET", "/v1/servers/../../passwd", "other"},
		{"HEAD", "/v1/stats", "/v1/stats"},
		{"PUT", "/v1/stats", "other"},
	}
	counts, events := map[[3]string]uint64{}, json.NewDecoder(&trace)
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		key := [3]string{tc.want, tc.method, strconv.Itoa(rec.Code)}
		counts[key]++
		if got := reg.Counter("dvecap_http_requests_total", "", "route", key[0], "method", key[1], "code", key[2]).Value(); got != counts[key] {
			t.Errorf("%s %s: requests_total{route=%q,code=%s} = %d, want %d", tc.method, tc.path, tc.want, key[2], got, counts[key])
		}
		var ev telemetry.TraceEvent
		if err := events.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if want := tc.method + " " + tc.want; ev.Op != want || events.More() {
			t.Errorf("%s %s: trace op %q, want %q and one event per request", tc.method, tc.path, ev.Op, want)
		}
	}
}

func telemetryDirector(t *testing.T) (*Director, *telemetry.Registry) {
	t.Helper()
	g, err := topology.Waxman(xrand.New(5), topology.DefaultWaxman(40))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	d, err := New(Config{
		ServerNodes:   []int{0, 10, 20, 30},
		ServerCaps:    []float64{50, 50, 50, 50},
		Zones:         8,
		Delays:        dm,
		DelayBoundMs:  250,
		FrameRate:     25,
		MessageBytes:  100,
		Seed:          1,
		TrafficWeight: 1,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, reg
}

// TestMetricsEndpoint drives traffic through the instrumented handler and
// checks the scrape: valid Prometheus text, the repair/quality series from
// the planner, and the HTTP series recorded by the middleware itself.
func TestMetricsEndpoint(t *testing.T) {
	d, _ := telemetryDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	for i := 0; i < 5; i++ {
		if _, err := http.Post(srv.URL+"/v1/clients", "application/json",
			strings.NewReader(`{"node": 3, "zone": 1}`)); err != nil {
			t.Fatal(err)
		}
	}
	// Two interaction edges through the API, so the traffic series carry
	// real values at scrape time.
	for _, body := range []string{
		`{"zone1": 0, "zone2": 1, "weight_mbps": 2.5}`,
		`{"zone1": 1, "zone2": 2, "weight_mbps": 1.5}`,
	} {
		if _, err := http.Post(srv.URL+"/v1/adjacency", "application/json",
			strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := http.Get(srv.URL + "/v1/stats"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	pm, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}

	if joins, err := pm.Sample("dvecap_repair_events_total", map[string]string{"type": "join"}); err != nil || joins.Value != 5 {
		t.Errorf("dvecap_repair_events_total{type=join} = %v (%v), want 5", joins.Value, err)
	}
	if lat, err := pm.Sample("dvecap_repair_duration_seconds_count", map[string]string{"type": "join"}); err != nil || lat.Value != 5 {
		t.Errorf("dvecap_repair_duration_seconds_count{type=join} = %v (%v), want 5", lat.Value, err)
	}
	if pq, err := pm.Sample("dvecap_pqos", nil); err != nil || pq.Value <= 0 || pq.Value > 1 {
		t.Errorf("dvecap_pqos = %v (%v), want in (0,1]", pq.Value, err)
	}
	if cl, err := pm.Sample("dvecap_clients", nil); err != nil || cl.Value != 5 {
		t.Errorf("dvecap_clients = %v (%v), want 5", cl.Value, err)
	}
	if ae, err := pm.Sample("dvecap_traffic_adjacency_edits_total", nil); err != nil || ae.Value != 2 {
		t.Errorf("dvecap_traffic_adjacency_edits_total = %v (%v), want 2", ae.Value, err)
	}
	if cw, err := pm.Sample("dvecap_traffic_cut_weight", nil); err != nil || cw.Value < 0 {
		t.Errorf("dvecap_traffic_cut_weight = %v (%v), want >= 0", cw.Value, err)
	}
	if tc, err := pm.Sample("dvecap_traffic_cost", nil); err != nil || tc.Value < 0 {
		t.Errorf("dvecap_traffic_cost = %v (%v), want >= 0", tc.Value, err)
	}
	if ce, err := pm.Sample("dvecap_traffic_cross_edges", nil); err != nil || ce.Value < 0 || ce.Value > 2 {
		t.Errorf("dvecap_traffic_cross_edges = %v (%v), want in [0,2]", ce.Value, err)
	}
	if aposts, err := pm.Sample("dvecap_http_requests_total",
		map[string]string{"route": "/v1/adjacency", "method": "POST", "code": "200"}); err != nil || aposts.Value != 2 {
		t.Errorf("http_requests{/v1/adjacency,POST,200} = %v (%v), want 2", aposts.Value, err)
	}
	if posts, err := pm.Sample("dvecap_http_requests_total",
		map[string]string{"route": "/v1/clients", "method": "POST", "code": "201"}); err != nil || posts.Value != 5 {
		t.Errorf("http_requests{/v1/clients,POST,201} = %v (%v), want 5", posts.Value, err)
	}
	if _, err := pm.Sample("dvecap_http_request_duration_seconds_count",
		map[string]string{"route": "/v1/stats"}); err != nil {
		t.Errorf("missing request-duration histogram for /v1/stats: %v", err)
	}
	if fl, err := pm.Sample("dvecap_http_in_flight", nil); err != nil || fl.Value != 1 {
		// The scrape itself is in flight while it renders.
		t.Errorf("dvecap_http_in_flight = %v (%v), want 1", fl.Value, err)
	}
}

func TestMetricsDisabledIs404(t *testing.T) {
	d := testDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics without telemetry = %d, want 404", resp.StatusCode)
	}
}

// TestReadyz: readiness answers 200 on a fresh director and on a durable
// one New recovered, whose first requests already see the recovered
// population — recovery finishes inside New, before any handler exists.
func TestReadyz(t *testing.T) {
	dm := durDelays(t)
	cfg := durDirConfig(dm, 1)
	cfg.DataDir = t.TempDir()
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := first.Join("", i, i%8); err != nil {
			t.Fatal(err)
		}
	}
	// Left without Close, as a kill leaves it: New replays the log tail.
	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		d       *Director
		clients int
	}{{"fresh", testDirector(t), 0}, {"recovered", recovered, 5}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(Handler(tc.d))
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/v1/readyz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/readyz = %d, want 200", resp.StatusCode)
			}
			st, err := NewClient(srv.URL).Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Clients != tc.clients {
				t.Fatalf("GET /v1/stats counts %d clients, want %d", st.Clients, tc.clients)
			}
		})
	}
}
