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

// call issues one request and decodes a T from the response.
func call[T any](c *Client, method, path string, body interface{}) (out T, err error) {
	err = c.do(method, path, body, &out)
	return out, err
}

// object is a JSON request body.
type object = map[string]interface{}

// Join registers a client in the zone at dense index zone; JoinRef also
// takes the zone's stable ID.
func (c *Client) Join(id string, node, zone int) (ClientInfo, error) {
	return c.JoinRef(id, node, Index(zone))
}

// JoinRef registers a client.
func (c *Client) JoinRef(id string, node int, zone Ref) (ClientInfo, error) {
	return call[ClientInfo](c, http.MethodPost, "/v1/clients", object{"id": id, "node": node, "zone": zone.String()})
}

// Leave removes a client.
func (c *Client) Leave(id string) error {
	return c.do(http.MethodDelete, clientPath(id), nil, nil)
}

// Move relocates a client to the zone at dense index zone; MoveRef also
// takes the zone's stable ID.
func (c *Client) Move(id string, zone int) (ClientInfo, error) { return c.MoveRef(id, Index(zone)) }

// MoveRef relocates a client to another zone.
func (c *Client) MoveRef(id string, zone Ref) (ClientInfo, error) {
	return call[ClientInfo](c, http.MethodPost, clientPath(id)+"/move", object{"zone": zone.String()})
}

// UpdateDelays streams freshly measured RTTs (one entry per server, in
// server order; ms) into the director, which repairs incrementally around
// the client's zone.
func (c *Client) UpdateDelays(id string, rttsMs []float64) (ClientInfo, error) {
	return call[ClientInfo](c, http.MethodPost, clientPath(id)+"/delays", object{"rtts_ms": rttsMs})
}

// Lookup fetches a client's current assignment.
func (c *Client) Lookup(id string) (ClientInfo, error) {
	return call[ClientInfo](c, http.MethodGet, clientPath(id), nil)
}

// Servers lists the deployment's servers with load, capacity, hosted
// zone count and drain status.
func (c *Client) Servers() ([]ServerInfo, error) {
	return call[[]ServerInfo](c, http.MethodGet, "/v1/servers", nil)
}

// AddServer brings a new server online at a topology node.
func (c *Client) AddServer(node int, capacityMbps float64) (ServerInfo, error) {
	return call[ServerInfo](c, http.MethodPost, "/v1/servers", object{"node": node, "capacity_mbps": capacityMbps})
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
	return call[AdjacencyInfo](c, http.MethodPost, "/v1/adjacency",
		object{"zone1": zone1.String(), "zone2": zone2.String(), "weight_mbps": weightMbps})
}

// AddAdjacencyWeight accumulates an observed crossing's weight onto an
// interaction edge.
func (c *Client) AddAdjacencyWeight(zone1, zone2 Ref, deltaMbps float64) (AdjacencyInfo, error) {
	return call[AdjacencyInfo](c, http.MethodPost, "/v1/adjacency/add",
		object{"zone1": zone1.String(), "zone2": zone2.String(), "delta_mbps": deltaMbps})
}

// Reassign triggers a full re-execution of the assignment algorithm.
func (c *Client) Reassign() (ReassignResult, error) {
	return call[ReassignResult](c, http.MethodPost, "/v1/reassign", nil)
}

// Checkpoint snapshots a durable director's state and truncates its
// journal, bounding the next recovery's replay.
func (c *Client) Checkpoint() (CheckpointResult, error) {
	return call[CheckpointResult](c, http.MethodPost, "/v1/checkpoint", nil)
}

// Stats fetches current quality metrics.
func (c *Client) Stats() (Stats, error) { return call[Stats](c, http.MethodGet, "/v1/stats", nil) }

// Snapshot lists all registered clients.
func (c *Client) Snapshot() ([]ClientInfo, error) {
	return call[[]ClientInfo](c, http.MethodGet, "/v1/clients", nil)
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
