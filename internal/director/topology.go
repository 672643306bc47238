package director

// Live-topology operations on the director: servers are added under load,
// drained for rolling deploys, uncordoned or removed; zones are spun up
// and retired — all applied through the repair planner's O(affected)
// topology events (internal/repair/topology.go), never a stop-the-world
// re-solve. The director derives every new delay entry from its topology
// oracle, so no measurement plumbing is needed when capacity changes.
//
// Servers and zones are addressed by dense index, like every other index
// in the director's API. Removal renumbers: the last server (or zone)
// takes the removed one's index — callers holding indices across a
// DELETE must re-list.

import (
	"fmt"

	"dvecap/internal/repair"
)

// Topology sentinels shared with the repair subsystem; the HTTP layer
// maps them onto status codes with errors.Is.
var (
	// ErrUnknownServer reports a server index outside the deployment.
	ErrUnknownServer = repair.ErrUnknownServer
	// ErrUnknownZone reports a zone index outside the virtual world.
	ErrUnknownZone = repair.ErrUnknownZone
	// ErrServerNotEmpty reports removing a server that still hosts zones
	// or serves contacts — drain it first.
	ErrServerNotEmpty = repair.ErrServerNotEmpty
	// ErrZoneNotEmpty reports retiring a zone that still has clients.
	ErrZoneNotEmpty = repair.ErrZoneNotEmpty
	// ErrLastServer reports removing or draining the last available server.
	ErrLastServer = repair.ErrLastServer
	// ErrLastZone reports retiring the only zone.
	ErrLastZone = repair.ErrLastZone
)

// ServerInfo is the externally visible state of one server.
type ServerInfo struct {
	Server int `json:"server"`
	Node   int `json:"node"`
	// CapacityMbps is the nominal capacity (out of the fleet while the
	// server drains, until uncordon); LoadMbps the current bandwidth load.
	CapacityMbps float64 `json:"capacity_mbps"`
	LoadMbps     float64 `json:"load_mbps"`
	// Zones is the number of zones the server currently hosts.
	Zones int `json:"zones"`
	// Draining reports an in-flight drain: evacuated, cordoned, waiting
	// for DELETE or uncordon.
	Draining bool `json:"draining"`
}

// ZoneInfo is the externally visible state of one zone.
type ZoneInfo struct {
	Zone    int `json:"zone"`
	Server  int `json:"server"`
	Clients int `json:"clients"`
}

// Servers lists the deployment's servers in index order.
func (d *Director) Servers() []ServerInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.serversLocked()
}

func (d *Director) serversLocked() []ServerInfo {
	pl := d.planner()
	counts := pl.ServerZoneCounts()
	out := make([]ServerInfo, len(d.cfg.ServerNodes))
	for i := range out {
		out[i] = ServerInfo{
			Server:       i,
			Node:         d.cfg.ServerNodes[i],
			CapacityMbps: pl.ServerCapacity(i),
			LoadMbps:     pl.ServerLoad(i),
			Zones:        counts[i],
			Draining:     pl.Draining(i),
		}
	}
	return out
}

// Zones lists the virtual world's zones in index order.
func (d *Director) Zones() []ZoneInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	pl := d.planner()
	out := make([]ZoneInfo, d.cfg.Zones)
	for z := range out {
		out[z] = ZoneInfo{Zone: z, Server: pl.ZoneHost(z), Clients: d.zonePop[z]}
	}
	return out
}

// AddServer brings a new server online at a topology node: its
// inter-server delays and every registered client's delay to it are
// derived from the delay oracle, and it participates in placement
// decisions immediately. Returns the new server's info (its index is the
// current server count).
func (d *Director) AddServer(node int, capacityMbps float64) (ServerInfo, error) {
	return d.addServer(node, capacityMbps, false)
}

// AddSpareServer registers a warm spare at a topology node: delays are
// derived and capacity recorded like AddServer, but the server arrives
// cordoned — no zones, no contacts, capacity out of the utilization
// denominator — as pool inventory for the autoscaler (or an operator's
// UncordonServer) to admit later in O(affected).
func (d *Director) AddSpareServer(node int, capacityMbps float64) (ServerInfo, error) {
	return d.addServer(node, capacityMbps, true)
}

func (d *Director) addServer(node int, capacityMbps float64, spare bool) (ServerInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if node < 0 || node >= d.cfg.Delays.N() {
		return ServerInfo{}, fmt.Errorf("director: node %d outside topology", node)
	}
	if !repair.FinitePos(capacityMbps) {
		return ServerInfo{}, fmt.Errorf("director: capacity %v, want finite > 0", capacityMbps)
	}
	// The new server's delay entries are derived from the oracle up front —
	// reads only, so outside the state lock. Only the node, capacity and
	// spare flag are journaled; replay re-derives the rows identically.
	m := len(d.cfg.ServerNodes)
	ss := make([]float64, m)
	for l := 0; l < m; l++ {
		ss[l] = d.cfg.Delays.ServerRTT(node, d.cfg.ServerNodes[l])
	}
	pl := d.planner()
	col := make([]float64, pl.NumClients())
	for _, id := range d.binding.IDs() {
		j, err := d.denseIndexLocked(id)
		if err != nil {
			return ServerInfo{}, err
		}
		col[j] = d.cfg.Delays.RTT(d.clients[id].node, node)
	}
	add := pl.AddServer
	if spare {
		add = pl.AddSpareServer
	}
	var i int
	if err := d.commit(&repair.Event{Op: repair.OpDAddServer, Node: node, Capacity: capacityMbps, Spare: spare}, func() (err error) {
		if i, err = add(capacityMbps, ss, col); err != nil {
			return err
		}
		d.cfg.ServerNodes = append(d.cfg.ServerNodes, node)
		d.cfg.ServerCaps = append(d.cfg.ServerCaps, capacityMbps)
		d.csBuf = append(d.csBuf, 0)
		return nil
	}); err != nil {
		return ServerInfo{}, err
	}
	return d.serversLocked()[i], nil
}

// RemoveServer retires server i. It must be empty — drained, or never
// loaded (ErrServerNotEmpty otherwise) — and not the last server. The
// last server is renumbered to index i.
func (d *Director) RemoveServer(i int) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commit(&repair.Event{Op: repair.OpDRemoveServer, ServerIdx: i}, func() error {
		moved, err := d.planner().RemoveServer(i)
		if err != nil {
			return err
		}
		last := len(d.cfg.ServerNodes) - 1
		if moved >= 0 {
			d.cfg.ServerNodes[i] = d.cfg.ServerNodes[last]
			d.cfg.ServerCaps[i] = d.cfg.ServerCaps[last]
		}
		d.cfg.ServerNodes = d.cfg.ServerNodes[:last]
		d.cfg.ServerCaps = d.cfg.ServerCaps[:last]
		d.csBuf = d.csBuf[:last]
		return nil
	})
}

// DrainServer evacuates server i for a rolling deploy: its capacity
// leaves the fleet, hosted zones force-move to the best available
// destinations, forwarding contacts re-attach, and a seeded repair pass
// covers the affected zones — O(affected), no full re-solve. The server
// then holds nothing; DELETE it or uncordon it.
func (d *Director) DrainServer(i int) (ServerInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.commit(&repair.Event{Op: repair.OpDDrain, ServerIdx: i}, func() error {
		return d.planner().DrainServer(i)
	}); err != nil {
		return ServerInfo{}, err
	}
	return d.serversLocked()[i], nil
}

// UncordonServer returns a drained server to service with its nominal
// capacity restored.
func (d *Director) UncordonServer(i int) (ServerInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.commit(&repair.Event{Op: repair.OpDUncordon, ServerIdx: i}, func() error {
		return d.planner().UncordonServer(i)
	}); err != nil {
		return ServerInfo{}, err
	}
	return d.serversLocked()[i], nil
}

// AddZone grows the virtual world by one (empty) zone, auto-placed on the
// least-loaded available server, and returns its info.
func (d *Director) AddZone() (ZoneInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	var z int
	if err := d.commit(&repair.Event{Op: repair.OpDAddZone}, func() (err error) {
		if z, err = d.planner().AddZone(-1); err != nil {
			return err
		}
		d.cfg.Zones++
		d.zonePop = append(d.zonePop, 0)
		return nil
	}); err != nil {
		return ZoneInfo{}, err
	}
	return ZoneInfo{Zone: z, Server: d.planner().ZoneHost(z), Clients: 0}, nil
}

// RetireZone removes empty zone z from the virtual world
// (ErrZoneNotEmpty while clients remain). The last zone is renumbered to
// index z: registered clients of the renumbered zone keep their identity,
// only the zone's index changes.
func (d *Director) RetireZone(z int) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commit(&repair.Event{Op: repair.OpDRetireZone, ZoneIdx: z}, func() error {
		moved, err := d.planner().RetireZone(z)
		if err != nil {
			return err
		}
		last := d.cfg.Zones - 1
		if moved >= 0 {
			for _, rec := range d.clients {
				if rec.zone == moved {
					rec.zone = z
				}
			}
			d.zonePop[z] = d.zonePop[moved]
		}
		d.zonePop = d.zonePop[:last]
		d.cfg.Zones = last
		return nil
	})
}

// denseIndexLocked resolves a registered client ID to the planner's
// current dense index.
func (d *Director) denseIndexLocked(id string) (int, error) {
	h, err := d.binding.Handle(id)
	if err != nil {
		return 0, err
	}
	return d.planner().Index(h)
}
