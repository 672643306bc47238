package director

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dvecap/internal/autoscale"
)

// The vocabulary FuzzHTTP draws its requests from.
var (
	fuzzMethods = []string{http.MethodGet, http.MethodPost, http.MethodDelete, http.MethodPut, http.MethodHead}
	// fuzzRoutes are the paths of Handler's registered patterns.
	fuzzRoutes = []string{
		"/v1/healthz", "/v1/readyz", "/metrics", "/v1/stats", "/v1/problem",
		"/v1/checkpoint", "/v1/reassign",
		"/v1/clients", "/v1/clients/{id}", "/v1/clients/{id}/move", "/v1/clients/{id}/delays",
		"/v1/servers", "/v1/servers/{id}", "/v1/servers/{id}/drain", "/v1/servers/{id}/uncordon",
		"/v1/autoscale", "/v1/autoscale/config", "/v1/autoscale/pause",
		"/v1/autoscale/resume", "/v1/autoscale/tick",
		"/v1/zones", "/v1/zones/{id}", "/v1/adjacency", "/v1/adjacency/add",
	}
	// fuzzIDs fill {id}: live and unknown client, server and zone IDs,
	// dense indices, and path tricks.
	fuzzIDs = []string{
		"alice", "c000001", "c000002", "nobody", "abc", "s0", "s3", "s4", "s99",
		"z0", "z2", "z8", "z99", "0", "2", "3", "99", "-1", "..", "%2F", "guild%2F7", "a%20b", "",
	}
	// fuzzBodies are the well-formed bodies of the JSON routes.
	fuzzBodies = []string{
		"", "{}", "null",
		`{"node":3,"zone":1}`, `{"id":"alice","node":1,"zone":"z0"}`,
		`{"zone":"z2"}`, `{"zone":5}`,
		`{"rtts_ms":[10,20,30,40]}`, `{"rtts_ms":[10,20,30,40,50]}`,
		`{"node":5,"capacity_mbps":40}`, `{"node":7,"capacity_mbps":30,"spare":true}`,
		`{"zone1":0,"zone2":1,"weight_mbps":2}`, `{"zone1":"z1","zone2":"z2","weight_mbps":0}`,
		`{"zone1":"z0","zone2":"z1","delta_mbps":1.5}`,
		`{"UtilHigh":0.9,"UtilLow":0.4}`,
	}
)

// fuzzRequest encodes one request in FuzzHTTP's input format: method,
// route and ID bytes, then a body byte — a fuzzBodies index, or past them
// the length of the raw body that follows. It reports false when path is
// not a route with an ID from the pool.
func fuzzRequest(method, path, body string) ([]byte, bool) {
	m := slices.Index(fuzzMethods, method)
	if m < 0 || len(fuzzBodies)+len(body) > 255 {
		return nil, false
	}
	for r, route := range fuzzRoutes {
		for i, id := range fuzzIDs {
			if strings.Replace(route, "{id}", id, 1) == path {
				return append([]byte{byte(m), byte(r), byte(i), byte(len(fuzzBodies) + len(body))}, body...), true
			}
		}
	}
	return nil, false
}

// FuzzHTTP drives Handler with request sequences over the registered
// routes, and requires of every response: no panic, no 5xx, the machine
// still passes its audit, and a 4xx left the clients as they were.
func FuzzHTTP(f *testing.F) {
	var all []byte
	for _, tc := range statusCases() {
		if seed, ok := fuzzRequest(tc.method, tc.path, tc.body); ok {
			f.Add(seed)
			all = append(all, seed...)
		}
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := testDirector(t)
		if _, err := d.Join("alice", 12, 2); err != nil {
			t.Fatal(err)
		}
		if err := d.EnableAutoscale(autoscale.Config{}); err != nil {
			t.Fatal(err)
		}
		h := Handler(d)
		for len(data) >= 4 {
			method := fuzzMethods[int(data[0])%len(fuzzMethods)]
			path := strings.Replace(fuzzRoutes[int(data[1])%len(fuzzRoutes)], "{id}", fuzzIDs[int(data[2])%len(fuzzIDs)], 1)
			n := int(data[3])
			data = data[4:]
			var body []byte
			if n < len(fuzzBodies) {
				body = []byte(fuzzBodies[n])
			} else {
				k := min(n-len(fuzzBodies), len(data))
				body, data = data[:k], data[k:]
			}
			before, clients := d.Snapshot(), d.Stats().Clients
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s %s %q: %d %s", method, path, body, rec.Code, rec.Body)
			}
			auditDirector(t, d)
			if rec.Code >= 400 && (d.Stats().Clients != clients || !reflect.DeepEqual(d.Snapshot(), before)) {
				t.Fatalf("%s %s %q answered %d but changed the clients", method, path, body, rec.Code)
			}
		}
	})
}
