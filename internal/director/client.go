package director

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"dvecap/internal/core"
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

// call issues one request (body nil: none) and decodes a T from the response.
func call[T any](c *Client, method, path string, body []byte) (out T, err error) {
	err = c.do(method, path, body, &out)
	return out, err
}

// Join registers a client in the zone at dense index zone; JoinRef also
// takes the zone's stable ID.
func (c *Client) Join(id string, node, zone int) (ClientInfo, error) {
	return c.JoinRef(id, node, Index(zone))
}

// JoinRef registers a client.
func (c *Client) JoinRef(id string, node int, zone Ref) (ClientInfo, error) {
	b := core.AppendString(append(make([]byte, 0, 64), `{"id":`...), id)
	b = core.AppendString(append(strconv.AppendInt(append(b, `,"node":`...), int64(node), 10), `,"zone":`...), zone.String())
	return call[ClientInfo](c, http.MethodPost, "/v1/clients", append(b, '}'))
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
	b := core.AppendString(append(make([]byte, 0, 32), `{"zone":`...), zone.String())
	return call[ClientInfo](c, http.MethodPost, clientPath(id)+"/move", append(b, '}'))
}

// UpdateDelays streams freshly measured RTTs (one entry per server, in
// server order; ms) into the director, which repairs incrementally around
// the client's zone.
func (c *Client) UpdateDelays(id string, rttsMs []float64) (ClientInfo, error) {
	row, err := json.Marshal(rttsMs)
	if err != nil {
		return ClientInfo{}, err
	}
	b := append(append(make([]byte, 0, 12+len(row)), `{"rtts_ms":`...), row...)
	return call[ClientInfo](c, http.MethodPost, clientPath(id)+"/delays", append(b, '}'))
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

func (c *Client) do(method, path string, body []byte, out interface{}) error {
	req, err := http.NewRequest(method, c.BaseURL+path, bytes.NewReader(body))
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
	info, ok := out.(*ClientInfo)
	if !ok {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	// A ClientInfo as the director writes it is read in one pass.
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b, err := readWire(resp.Body, *bp)
	if err == io.EOF && readClientInfo(b, info) {
		return nil
	}
	return json.NewDecoder(replay(b, err, resp.Body)).Decode(out)
}
