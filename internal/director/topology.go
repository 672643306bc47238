package director

// Live-topology operations on the director: servers are added under load,
// drained for rolling deploys, uncordoned or removed; zones are spun up
// and retired — all applied through the repair planner's O(affected)
// topology events (internal/repair/topology.go), never a stop-the-world
// re-solve. The director derives every new delay entry from its topology
// oracle, so no measurement plumbing is needed when capacity changes.
//
// Servers and zones are addressed by Ref (ref.go): their stable ID, or —
// deprecated — their current dense index. Removal renumbers the indices (the
// last server or zone takes the removed one's); the IDs stay put.

import (
	"fmt"

	"dvecap/internal/repair"
)

// Topology sentinels shared with the repair subsystem; the HTTP layer
// maps them onto status codes with errors.Is.
var (
	// ErrUnknownServer reports a server ID or index outside the deployment.
	ErrUnknownServer = repair.ErrUnknownServer
	// ErrUnknownZone reports a zone ID or index outside the virtual world.
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

// ServerInfo is the externally visible state of one server: its stable ID
// and its current dense index.
type ServerInfo struct {
	ID     string `json:"id"`
	Server int    `json:"server"`
	Node   int    `json:"node"`
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

// ZoneInfo is the externally visible state of one zone: its stable ID, its
// current dense index, and its hosting server by index and by ID.
type ZoneInfo struct {
	ID       string `json:"id"`
	Zone     int    `json:"zone"`
	Server   int    `json:"server"`
	ServerID string `json:"server_id"`
	Clients  int    `json:"clients"`
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
	out := make([]ServerInfo, pl.NumServers())
	for i, id := range d.m.Binding().ServerNames() {
		out[i] = ServerInfo{
			ID:           id,
			Server:       i,
			Node:         d.m.ServerNodes()[i],
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
	out := make([]ZoneInfo, d.planner().NumZones())
	for z := range out {
		out[z] = d.zoneInfo(z)
	}
	return out
}

func (d *Director) zoneInfo(z int) ZoneInfo {
	b, host := d.m.Binding(), d.planner().ZoneHost(z)
	return ZoneInfo{ID: b.ZoneID(z), Zone: z, Server: host, ServerID: b.ServerID(host), Clients: b.ZonePop(z)}
}

// AddServer brings a new server online at a topology node: its
// inter-server delays and every registered client's delay to it are
// derived from the delay oracle, and it participates in placement
// decisions immediately. Returns the new server's info (its ID is fresh,
// its index the previous server count).
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
	return d.commitServer(d.addServerEvent(node, capacityMbps, spare))
}

// addServerEvent resolves a server's arrival: its ID, and its delay entries
// from the oracle — the inter-server row and every client's RTT to it.
func (d *Director) addServerEvent(node int, capacityMbps float64, spare bool) (*repair.Event, error) {
	if node < 0 || node >= d.cfg.Delays.N() {
		return nil, fmt.Errorf("director: node %d outside topology", node)
	}
	b := d.m.Binding()
	e := &repair.Event{
		Op:         repair.OpAddServer,
		Server:     freshName("s", b.ServerNames()),
		Capacity:   capacityMbps,
		ClientRTTs: make(map[string]float64, b.Len()),
		Spare:      spare,
		Node:       node,
	}
	for _, sn := range d.m.ServerNodes() {
		e.Row = append(e.Row, d.cfg.Delays.ServerRTT(node, sn))
	}
	for _, id := range b.DenseIDs() {
		e.ClientRTTs[id] = d.cfg.Delays.RTT(d.m.ClientNode(id), node)
	}
	return e, nil
}

// RemoveServer retires a server. It must be empty — drained, or never
// loaded (ErrServerNotEmpty otherwise) — and not the last server. The
// last server is renumbered to its index.
func (d *Director) RemoveServer(s Ref) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commit(d.serverEvent(repair.OpRemoveServer, s))
}

// DrainServer evacuates a server for a rolling deploy: its capacity
// leaves the fleet, hosted zones force-move to the best available
// destinations, forwarding contacts re-attach, and a seeded repair pass
// covers the affected zones — O(affected), no full re-solve. The server
// then holds nothing; DELETE it or uncordon it.
func (d *Director) DrainServer(s Ref) (ServerInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commitServer(d.serverEvent(repair.OpDrainServer, s))
}

// UncordonServer returns a drained server to service with its nominal
// capacity restored.
func (d *Director) UncordonServer(s Ref) (ServerInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commitServer(d.serverEvent(repair.OpUncordon, s))
}

// serverEvent resolves the verbs that take nothing but a server.
func (d *Director) serverEvent(op repair.EventOp, s Ref) (*repair.Event, error) {
	i, err := d.serverIndex(s)
	if err != nil {
		return nil, fmt.Errorf("director: %w", err)
	}
	return &repair.Event{Op: op, Server: d.m.Binding().ServerID(i)}, nil
}

// commitServer is commit for the server verbs that answer with the server's
// resulting state.
func (d *Director) commitServer(e *repair.Event, err error) (ServerInfo, error) {
	if err := d.commit(e, err); err != nil {
		return ServerInfo{}, err
	}
	i, _ := d.m.Binding().ServerIndexOf(e.Server)
	return d.serversLocked()[i], nil
}

// AddZone grows the virtual world by one (empty) zone, auto-placed on the
// least-loaded available server, and returns its info.
func (d *Director) AddZone() (ZoneInfo, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.commit(d.addZoneEvent(), nil); err != nil {
		return ZoneInfo{}, err
	}
	return d.zoneInfo(d.planner().NumZones() - 1), nil
}

// addZoneEvent resolves a zone's arrival: its ID; the planner places it.
func (d *Director) addZoneEvent() *repair.Event {
	return &repair.Event{Op: repair.OpAddZone, Zone: freshName("z", d.m.Binding().ZoneNames())}
}

// RetireZone removes an empty zone from the virtual world (ErrZoneNotEmpty
// while clients remain). The last zone is renumbered to its index:
// registered clients of the renumbered zone keep their identity, only the
// zone's index changes.
func (d *Director) RetireZone(zone Ref) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.commit(d.zoneEvent(repair.OpRetireZone, zone))
}

// zoneEvent resolves the verbs that take nothing but a zone.
func (d *Director) zoneEvent(op repair.EventOp, zone Ref) (*repair.Event, error) {
	z, err := d.zoneIndex(zone)
	if err != nil {
		return nil, fmt.Errorf("director: %w", err)
	}
	return &repair.Event{Op: op, Zone: d.m.Binding().ZoneID(z)}, nil
}
