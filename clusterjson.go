package dvecap

import (
	"encoding/json"
	"fmt"
	"io"

	"dvecap/internal/repair"
)

// ReadClusterJSON builds a Cluster from its JSON spec:
//
//	{
//	  "delay_bound_ms": 250,
//	  "servers": [
//	    {"id": "fra", "capacity_mbps": 500, "rtts_ms": {"nyc": 80}},
//	    {"id": "nyc", "capacity_mbps": 500}
//	  ],
//	  "zones": ["plaza", "forest"],
//	  "clients": [
//	    {"id": "alice", "zone": "plaza", "bandwidth_mbps": 0.5,
//	     "rtts_ms": {"fra": 20, "nyc": 95}}
//	  ]
//	}
//
// server_rtts_ms may supply the full inter-server matrix (in servers
// order) instead of per-pair rtts_ms entries; clients may use rtt_row_ms
// (in servers order) instead of the rtts_ms map. The spec is validated
// exactly like the builder calls it maps to.
func ReadClusterJSON(r io.Reader) (*Cluster, error) {
	var cj repair.ClusterJSON
	if err := json.NewDecoder(r).Decode(&cj); err != nil {
		return nil, fmt.Errorf("dvecap: decoding cluster spec: %w", err)
	}
	return clusterFromJSON(&cj)
}

// clusterFromJSON replays a decoded spec through the builder calls it maps
// to.
func clusterFromJSON(cj *repair.ClusterJSON) (*Cluster, error) {
	c := NewCluster(cj.DelayBoundMs)
	for _, s := range cj.Servers {
		if err := c.AddServer(s.ID, ServerSpec{CapacityMbps: s.CapacityMbps, RTTs: s.RTTsMs}); err != nil {
			return nil, err
		}
	}
	if cj.ServerRTTsMs != nil {
		if err := c.SetServerRTTs(cj.ServerRTTsMs); err != nil {
			return nil, err
		}
	}
	for _, z := range cj.Zones {
		if err := c.AddZone(z); err != nil {
			return nil, err
		}
	}
	for _, cl := range cj.Clients {
		if err := c.AddClient(cl.ID, ClientSpec{
			Zone:          cl.Zone,
			BandwidthMbps: cl.BandwidthMbps,
			RTTs:          cl.RTTsMs,
			RTTRow:        cl.RTTRowMs,
		}); err != nil {
			return nil, err
		}
	}
	for _, e := range cj.ZoneAdjacency {
		if err := c.SetZoneAdjacency(e.Zone1, e.Zone2, e.WeightMbps); err != nil {
			return nil, err
		}
	}
	if cj.TrafficWeight != 0 {
		if err := c.SetTrafficWeight(cj.TrafficWeight); err != nil {
			return nil, err
		}
	}
	// Surface spec-level problems (missing RTT pairs, uncovered servers)
	// at load time rather than first solve.
	if _, err := c.problem(); err != nil {
		return nil, err
	}
	return c, nil
}

// WriteClusterJSON writes the cluster's validated spec as JSON,
// round-trippable by ReadClusterJSON: the inter-server matrix is emitted
// in full (server_rtts_ms) and every client carries its dense rtt_row_ms,
// so the output is the normalized form of whatever mix of per-pair and
// map-form RTTs built the cluster.
func (c *Cluster) WriteClusterJSON(w io.Writer) error {
	p, err := c.problem()
	if err != nil {
		return err
	}
	// The spec format carries full rows: the store materializes to the
	// dense interchange form.
	cj := repair.NewClusterJSON(p, c.serverIDs, c.zoneIDs, c.clientIDs, true)
	if err := cj.Encode(w); err != nil {
		return fmt.Errorf("dvecap: encoding cluster spec: %w", err)
	}
	return nil
}
