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

// Reassign triggers a full re-execution of the assignment algorithm.
func (c *Client) Reassign() (ReassignResult, error) {
	return call[ReassignResult](c, http.MethodPost, "/v1/reassign", nil)
}

// Stats fetches current quality metrics.
func (c *Client) Stats() (Stats, error) { return call[Stats](c, http.MethodGet, "/v1/stats", nil) }

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
