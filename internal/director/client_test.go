package director

import (
	"encoding/json"
	"net/http"
	"net/url"
)

// The Client verbs below have no caller outside this package's tests: the
// shipped binding (the benchmark's load generator) joins, moves, leaves,
// looks up, streams delays, reassigns and reads stats.

// object is a JSON request body.
type object = map[string]interface{}

// send is call with the body marshalled by encoding/json.
func send[T any](c *Client, method, path string, body object) (T, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		var zero T
		return zero, err
	}
	return call[T](c, method, path, raw)
}

// NewClient returns a binding for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: http.DefaultClient}
}

// Servers lists the deployment's servers with load, capacity, hosted
// zone count and drain status.
func (c *Client) Servers() ([]ServerInfo, error) {
	return call[[]ServerInfo](c, http.MethodGet, "/v1/servers", nil)
}

// AddServer brings a new server online at a topology node.
func (c *Client) AddServer(node int, capacityMbps float64) (ServerInfo, error) {
	return send[ServerInfo](c, http.MethodPost, "/v1/servers", object{"node": node, "capacity_mbps": capacityMbps})
}

// serverPath is the resource path of one server — ID("s3"), or the
// deprecated Index(3).
func serverPath(s Ref) string { return "/v1/servers/" + url.PathEscape(s.String()) }

// RemoveServer retires an empty server (drain it first). Indices
// renumber: the last server takes the removed one's index; IDs are stable.
func (c *Client) RemoveServer(s Ref) error {
	return c.do(http.MethodDelete, serverPath(s), nil, nil)
}

// DrainServer evacuates a server for a rolling deploy.
func (c *Client) DrainServer(s Ref) (ServerInfo, error) {
	return call[ServerInfo](c, http.MethodPost, serverPath(s)+"/drain", nil)
}

// UncordonServer returns a drained server to service.
func (c *Client) UncordonServer(s Ref) (ServerInfo, error) {
	return call[ServerInfo](c, http.MethodPost, serverPath(s)+"/uncordon", nil)
}

// Zones lists the virtual world's zones with hosting server and
// population.
func (c *Client) Zones() ([]ZoneInfo, error) {
	return call[[]ZoneInfo](c, http.MethodGet, "/v1/zones", nil)
}

// AddZone grows the virtual world by one empty zone.
func (c *Client) AddZone() (ZoneInfo, error) {
	return call[ZoneInfo](c, http.MethodPost, "/v1/zones", nil)
}

// RetireZone removes an empty zone. Indices renumber: the last zone takes
// the retired one's index; IDs are stable.
func (c *Client) RetireZone(z Ref) error {
	return c.do(http.MethodDelete, "/v1/zones/"+url.PathEscape(z.String()), nil, nil)
}

// Adjacency lists the zone-interaction graph's edges in canonical order.
func (c *Client) Adjacency() ([]AdjacencyInfo, error) {
	return call[[]AdjacencyInfo](c, http.MethodGet, "/v1/adjacency", nil)
}

// SetAdjacency installs (or, with weight 0, removes) an interaction edge
// at an absolute weight.
func (c *Client) SetAdjacency(zone1, zone2 Ref, weightMbps float64) (AdjacencyInfo, error) {
	return send[AdjacencyInfo](c, http.MethodPost, "/v1/adjacency",
		object{"zone1": zone1.String(), "zone2": zone2.String(), "weight_mbps": weightMbps})
}

// AddAdjacencyWeight accumulates an observed crossing's weight onto an
// interaction edge.
func (c *Client) AddAdjacencyWeight(zone1, zone2 Ref, deltaMbps float64) (AdjacencyInfo, error) {
	return send[AdjacencyInfo](c, http.MethodPost, "/v1/adjacency/add",
		object{"zone1": zone1.String(), "zone2": zone2.String(), "delta_mbps": deltaMbps})
}

// Checkpoint snapshots a durable director's state and truncates its
// journal, bounding the next recovery's replay.
func (c *Client) Checkpoint() (CheckpointResult, error) {
	return call[CheckpointResult](c, http.MethodPost, "/v1/checkpoint", nil)
}

// Snapshot lists all registered clients.
func (c *Client) Snapshot() ([]ClientInfo, error) {
	return call[[]ClientInfo](c, http.MethodGet, "/v1/clients", nil)
}
