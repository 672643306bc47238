package director

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
)

// Client is the Go binding for the director's HTTP API.
type Client struct {
	// BaseURL is the director's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a binding for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: http.DefaultClient}
}

// clientPath is the resource path of one client. IDs are caller-chosen, so
// the segment is escaped: "guild/7" or "a b" must arrive as ONE segment.
func clientPath(id string) string { return "/v1/clients/" + url.PathEscape(id) }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Join registers a client.
func (c *Client) Join(id string, node, zone int) (ClientInfo, error) {
	var out ClientInfo
	err := c.do(http.MethodPost, "/v1/clients", map[string]interface{}{
		"id": id, "node": node, "zone": zone,
	}, &out)
	return out, err
}

// Leave removes a client.
func (c *Client) Leave(id string) error {
	return c.do(http.MethodDelete, clientPath(id), nil, nil)
}

// Move relocates a client to another zone.
func (c *Client) Move(id string, zone int) (ClientInfo, error) {
	var out ClientInfo
	err := c.do(http.MethodPost, clientPath(id)+"/move", map[string]interface{}{"zone": zone}, &out)
	return out, err
}

// UpdateDelays streams freshly measured RTTs (one entry per server, in
// server order; ms) into the director, which repairs incrementally around
// the client's zone.
func (c *Client) UpdateDelays(id string, rttsMs []float64) (ClientInfo, error) {
	var out ClientInfo
	err := c.do(http.MethodPost, clientPath(id)+"/delays", map[string]interface{}{"rtts_ms": rttsMs}, &out)
	return out, err
}

// Lookup fetches a client's current assignment.
func (c *Client) Lookup(id string) (ClientInfo, error) {
	var out ClientInfo
	err := c.do(http.MethodGet, clientPath(id), nil, &out)
	return out, err
}

// Servers lists the deployment's servers with load, capacity, hosted
// zone count and drain status.
func (c *Client) Servers() ([]ServerInfo, error) {
	var out []ServerInfo
	err := c.do(http.MethodGet, "/v1/servers", nil, &out)
	return out, err
}

// AddServer brings a new server online at a topology node.
func (c *Client) AddServer(node int, capacityMbps float64) (ServerInfo, error) {
	var out ServerInfo
	err := c.do(http.MethodPost, "/v1/servers", map[string]interface{}{
		"node": node, "capacity_mbps": capacityMbps,
	}, &out)
	return out, err
}

// RemoveServer retires an empty server (drain it first). Indices
// renumber: the last server takes the removed one's index.
func (c *Client) RemoveServer(i int) error {
	return c.do(http.MethodDelete, fmt.Sprintf("/v1/servers/%d", i), nil, nil)
}

// DrainServer evacuates a server for a rolling deploy.
func (c *Client) DrainServer(i int) (ServerInfo, error) {
	var out ServerInfo
	err := c.do(http.MethodPost, fmt.Sprintf("/v1/servers/%d/drain", i), nil, &out)
	return out, err
}

// UncordonServer returns a drained server to service.
func (c *Client) UncordonServer(i int) (ServerInfo, error) {
	var out ServerInfo
	err := c.do(http.MethodPost, fmt.Sprintf("/v1/servers/%d/uncordon", i), nil, &out)
	return out, err
}

// Zones lists the virtual world's zones with hosting server and
// population.
func (c *Client) Zones() ([]ZoneInfo, error) {
	var out []ZoneInfo
	err := c.do(http.MethodGet, "/v1/zones", nil, &out)
	return out, err
}

// AddZone grows the virtual world by one empty zone.
func (c *Client) AddZone() (ZoneInfo, error) {
	var out ZoneInfo
	err := c.do(http.MethodPost, "/v1/zones", nil, &out)
	return out, err
}

// RetireZone removes an empty zone. Indices renumber: the last zone takes
// the retired one's index.
func (c *Client) RetireZone(z int) error {
	return c.do(http.MethodDelete, fmt.Sprintf("/v1/zones/%d", z), nil, nil)
}

// Adjacency lists the zone-interaction graph's edges in canonical order.
func (c *Client) Adjacency() ([]AdjacencyInfo, error) {
	var out []AdjacencyInfo
	err := c.do(http.MethodGet, "/v1/adjacency", nil, &out)
	return out, err
}

// SetAdjacency installs (or, with weight 0, removes) an interaction edge
// at an absolute weight.
func (c *Client) SetAdjacency(zone1, zone2 int, weightMbps float64) (AdjacencyInfo, error) {
	var out AdjacencyInfo
	err := c.do(http.MethodPost, "/v1/adjacency", map[string]interface{}{
		"zone1": zone1, "zone2": zone2, "weight_mbps": weightMbps,
	}, &out)
	return out, err
}

// AddAdjacencyWeight accumulates an observed crossing's weight onto an
// interaction edge.
func (c *Client) AddAdjacencyWeight(zone1, zone2 int, deltaMbps float64) (AdjacencyInfo, error) {
	var out AdjacencyInfo
	err := c.do(http.MethodPost, "/v1/adjacency/add", map[string]interface{}{
		"zone1": zone1, "zone2": zone2, "delta_mbps": deltaMbps,
	}, &out)
	return out, err
}

// Reassign triggers a full re-execution of the assignment algorithm.
func (c *Client) Reassign() (ReassignResult, error) {
	var out ReassignResult
	err := c.do(http.MethodPost, "/v1/reassign", nil, &out)
	return out, err
}

// Checkpoint snapshots a durable director's state and truncates its
// journal, bounding the next recovery's replay.
func (c *Client) Checkpoint() (CheckpointResult, error) {
	var out CheckpointResult
	err := c.do(http.MethodPost, "/v1/checkpoint", nil, &out)
	return out, err
}

// Stats fetches current quality metrics.
func (c *Client) Stats() (Stats, error) {
	var out Stats
	err := c.do(http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Snapshot lists all registered clients.
func (c *Client) Snapshot() ([]ClientInfo, error) {
	var out []ClientInfo
	err := c.do(http.MethodGet, "/v1/clients", nil, &out)
	return out, err
}

func (c *Client) do(method, path string, body interface{}, out interface{}) error {
	var rdr *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rdr = bytes.NewReader(raw)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rdr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var ae apiError
		if json.NewDecoder(resp.Body).Decode(&ae) == nil && ae.Error != "" {
			return fmt.Errorf("director: %s %s: %s (HTTP %d)", method, path, ae.Error, resp.StatusCode)
		}
		return fmt.Errorf("director: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
