package repair

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sentinel errors for ID-keyed client lookups. The public layers that
// build on IDBinding — the dvecap Cluster API and the director service —
// re-export or wrap these, so errors.Is works across every layer.
var (
	// ErrUnknownClient reports an operation on a client ID that is not
	// (or no longer) registered.
	ErrUnknownClient = errors.New("unknown client")
	// ErrDuplicateClient reports a join under an ID that is already
	// registered.
	ErrDuplicateClient = errors.New("duplicate client")
)

// names is one name table of the binding: the IDs in the planner's dense
// order and each ID's dense index. Lookups fail with the table's unknown
// sentinel, additions of a present ID with its duplicate sentinel.
type names struct {
	ids          []string
	idx          map[string]int
	unknown, dup error
}

// newNames builds a table naming dense index j ids[j].
func newNames(ids []string, unknown, dup error) (names, error) {
	t := names{ids: append([]string(nil), ids...), idx: make(map[string]int, len(ids)), unknown: unknown, dup: dup}
	for j, id := range ids {
		if _, ok := t.idx[id]; ok {
			return names{}, fmt.Errorf("%w %q", dup, id)
		}
		t.idx[id] = j
	}
	return t, nil
}

// index resolves an ID to its dense index.
func (t *names) index(id string) (int, error) {
	j, ok := t.idx[id]
	if !ok {
		return 0, fmt.Errorf("%w %q", t.unknown, id)
	}
	return j, nil
}

// indices resolves a list of IDs.
func (t *names) indices(ids []string) ([]int, error) {
	js := make([]int, len(ids))
	for x, id := range ids {
		j, err := t.index(id)
		if err != nil {
			return nil, err
		}
		js[x] = j
	}
	return js, nil
}

// fresh refuses IDs that are present or repeated among themselves — what
// adding them in order would trip over. A single ID allocates nothing.
func (t *names) fresh(ids ...string) error {
	var seen map[string]bool
	if len(ids) > 1 {
		seen = make(map[string]bool, len(ids))
	}
	for _, id := range ids {
		if _, dup := t.idx[id]; dup || seen[id] {
			return fmt.Errorf("%w %q", t.dup, id)
		}
		if seen != nil {
			seen[id] = true
		}
	}
	return nil
}

// add names the next dense index id.
func (t *names) add(id string) {
	t.idx[id] = len(t.ids)
	t.ids = append(t.ids, id)
}

// remove forgets the ID at dense index i the way the planner compacts: the
// last ID takes over index i.
func (t *names) remove(i int) {
	delete(t.idx, t.ids[i])
	last := len(t.ids) - 1
	if i != last {
		t.ids[i] = t.ids[last]
		t.idx[t.ids[i]] = i
	}
	t.ids = t.ids[:last]
}

// IDBinding feeds string-keyed clients, servers and zones into a Planner:
// the binding for callers that address them by external IDs — the public
// Cluster API and the director's HTTP surface. It keeps one name table per
// kind in the planner's dense order and follows every swap-remove the
// planner makes, so IDs stay stable while dense indices shift. Clients
// have one order, the planner's (DenseIDs).
//
// Server and zone IDs are registered by NameTopology, after which the
// topology events (AddServer, RemoveServer, DrainServer, UncordonServer,
// AddZone, RetireZone) are addressable by ID.
//
// Errors wrap the sentinel values above without a package prefix, so the
// public layers can pass them through verbatim.
type IDBinding struct {
	pl                      *Planner
	clients, servers, zones names
}

// NewIDBinding pairs a planner with the IDs of the clients it already
// holds: ids[j] names the planner's client j. Pass nil for an empty
// planner.
func NewIDBinding(pl *Planner, ids []string) (*IDBinding, error) {
	if got, want := len(ids), pl.NumClients(); got != want {
		return nil, fmt.Errorf("repair: %d ids for %d planner clients", got, want)
	}
	clients, err := newNames(ids, ErrUnknownClient, ErrDuplicateClient)
	if err != nil {
		return nil, err
	}
	return &IDBinding{
		pl:      pl,
		clients: clients,
		servers: names{unknown: ErrUnknownServer, dup: ErrDuplicateServer},
		zones:   names{unknown: ErrUnknownZone, dup: ErrDuplicateZone},
	}, nil
}

// Planner returns the bound planner.
func (b *IDBinding) Planner() *Planner { return b.pl }

// Len returns the current population.
func (b *IDBinding) Len() int { return len(b.clients.ids) }

// Index resolves a client ID to the planner's current dense client index.
func (b *IDBinding) Index(id string) (int, error) { return b.clients.index(id) }

// ZoneOf returns the dense index of the zone the client is in.
func (b *IDBinding) ZoneOf(id string) (int, error) {
	j, err := b.Index(id)
	if err != nil {
		return 0, err
	}
	return b.pl.prob.ClientZones[j], nil
}

// Join admits a client under a fresh ID (see Planner.Join for the zone,
// rt and cs semantics).
func (b *IDBinding) Join(id string, zone int, rt float64, cs []float64) error {
	if err := b.clients.fresh(id); err != nil {
		return err
	}
	if _, err := b.pl.Join(zone, rt, cs); err != nil {
		return err
	}
	b.clients.add(id)
	return nil
}

// Leave removes the client behind id. The ID becomes available for reuse.
func (b *IDBinding) Leave(id string) error {
	j, err := b.Index(id)
	if err != nil {
		return err
	}
	if _, err := b.pl.Leave(j); err != nil {
		return err
	}
	b.clients.remove(j)
	return nil
}

// Move migrates the client's avatar to newZone (see Planner.Move).
func (b *IDBinding) Move(id string, newZone int) error {
	j, err := b.Index(id)
	if err != nil {
		return err
	}
	return b.pl.Move(j, newZone)
}

// UpdateDelays replaces the client's measured delay row (copied; see
// Planner.UpdateDelays).
func (b *IDBinding) UpdateDelays(id string, cs []float64) error {
	j, err := b.Index(id)
	if err != nil {
		return err
	}
	return b.pl.UpdateDelays(j, cs)
}

// SetRT updates the client's bandwidth requirement (see Planner.SetRT).
func (b *IDBinding) SetRT(id string, rt float64) error {
	j, err := b.Index(id)
	if err != nil {
		return err
	}
	return b.pl.SetRT(j, rt)
}

// NameTopology registers server and zone IDs for the planner's current
// topology: serverIDs[i] names dense server index i, zoneIDs[z] dense
// zone index z. Required before any of the ID-keyed topology methods;
// the binding keeps the tables consistent across the planner's
// swap-remove renumbering from then on.
func (b *IDBinding) NameTopology(serverIDs, zoneIDs []string) error {
	if got, want := len(serverIDs), b.pl.NumServers(); got != want {
		return fmt.Errorf("repair: %d server ids for %d servers", got, want)
	}
	if got, want := len(zoneIDs), b.pl.NumZones(); got != want {
		return fmt.Errorf("repair: %d zone ids for %d zones", got, want)
	}
	servers, err := newNames(serverIDs, ErrUnknownServer, ErrDuplicateServer)
	if err != nil {
		return err
	}
	zones, err := newNames(zoneIDs, ErrUnknownZone, ErrDuplicateZone)
	if err != nil {
		return err
	}
	b.servers, b.zones = servers, zones
	return nil
}

// ServerIndex resolves a server ID to its current dense index.
func (b *IDBinding) ServerIndex(id string) (int, error) { return b.servers.index(id) }

// ZoneIndex resolves a zone ID to its current dense index.
func (b *IDBinding) ZoneIndex(id string) (int, error) { return b.zones.index(id) }

// ServerIndexOf is ServerIndex without error construction — the lookup
// form hot paths (row resolution) use.
func (b *IDBinding) ServerIndexOf(id string) (int, bool) {
	i, ok := b.servers.idx[id]
	return i, ok
}

// ServerID names the server at dense index i.
func (b *IDBinding) ServerID(i int) string { return b.servers.ids[i] }

// ZoneID names the zone at dense index z.
func (b *IDBinding) ZoneID(z int) string { return b.zones.ids[z] }

// ServerNames returns the server IDs in dense order — the binding's own
// slice, read-only for callers, invalidated by the next topology event.
func (b *IDBinding) ServerNames() []string { return b.servers.ids }

// ZoneNames returns the zone IDs in dense order — the binding's own
// slice, read-only for callers, invalidated by the next topology event.
func (b *IDBinding) ZoneNames() []string { return b.zones.ids }

// AddServer registers a server under a fresh ID. clientRTTs supplies
// measured RTTs by client ID for the new server's delay column; clients
// absent from it are unmeasured (NaN: the delay store applies its default —
// a provider's prediction, or the far-out-of-bound UnmeasuredDelayMs that
// keeps the server unattractive until UpdateServerDelays supplies real
// values). See Planner.AddServer for the capacity and ss semantics; spare
// registers a warm spare, cordoned on arrival (Planner.AddSpareServer).
func (b *IDBinding) AddServer(id string, capacity float64, ss []float64, clientRTTs map[string]float64, spare bool) error {
	if err := b.servers.fresh(id); err != nil {
		return err
	}
	// The delay column in dense client order, NaN where unmeasured.
	col := make([]float64, b.pl.NumClients())
	for i := range col {
		col[i] = math.NaN()
	}
	for cid, d := range clientRTTs {
		j, ok := b.clients.idx[cid]
		if !ok {
			return fmt.Errorf("server %q RTT: %w %q", id, ErrUnknownClient, cid)
		}
		if d < 0 {
			return fmt.Errorf("server %q RTT to client %q is %v ms, want >= 0", id, cid, d)
		}
		col[j] = d
	}
	add := b.pl.AddServer
	if spare {
		add = b.pl.AddSpareServer
	}
	if _, err := add(capacity, ss, col); err != nil {
		return err
	}
	b.servers.add(id)
	return nil
}

// RemoveServer deletes the server behind id (see Planner.RemoveServer for
// the emptiness requirements). The binding follows the planner's
// swap-remove: the last server's ID takes over the vacated dense index.
func (b *IDBinding) RemoveServer(id string) error {
	i, err := b.ServerIndex(id)
	if err != nil {
		return err
	}
	if _, err := b.pl.RemoveServer(i); err != nil {
		return err
	}
	b.servers.remove(i)
	return nil
}

// DrainServer evacuates and cordons the server behind id (see
// Planner.DrainServer).
func (b *IDBinding) DrainServer(id string) error {
	i, err := b.ServerIndex(id)
	if err != nil {
		return err
	}
	return b.pl.DrainServer(i)
}

// UncordonServer returns the drained server behind id to service (see
// Planner.UncordonServer).
func (b *IDBinding) UncordonServer(id string) error {
	i, err := b.ServerIndex(id)
	if err != nil {
		return err
	}
	return b.pl.UncordonServer(i)
}

// AddZone registers a zone under a fresh ID. hostID picks the initial
// hosting server; empty auto-places on the least-loaded available server.
func (b *IDBinding) AddZone(id, hostID string) error {
	host, err := b.zoneHost(id, hostID)
	if err != nil {
		return err
	}
	if _, err := b.pl.AddZone(host); err != nil {
		return err
	}
	b.zones.add(id)
	return nil
}

// zoneHost checks an added zone's ID and resolves its host (-1: auto-place).
func (b *IDBinding) zoneHost(id, hostID string) (int, error) {
	if err := b.zones.fresh(id); err != nil {
		return 0, err
	}
	if hostID == "" {
		return -1, nil
	}
	return b.ServerIndex(hostID)
}

// RetireZone deletes the empty zone behind id (see Planner.RetireZone).
// The binding follows the planner's swap-remove: the last zone's ID takes
// over the vacated dense index.
func (b *IDBinding) RetireZone(id string) error {
	z, err := b.ZoneIndex(id)
	if err != nil {
		return err
	}
	if _, err := b.pl.RetireZone(z); err != nil {
		return err
	}
	b.zones.remove(z)
	return nil
}

// JoinBatch admits many clients in one event (see Planner.JoinBatch):
// memberships apply first, then one seeded repair scan covers the union
// of touched zones. The batch is validated before anything is applied —
// an error means no client was admitted.
func (b *IDBinding) JoinBatch(ids []string, zones []int, rts []float64, css [][]float64) error {
	if len(ids) != len(zones) {
		return fmt.Errorf("repair: batch of %d ids, %d zones", len(ids), len(zones))
	}
	if err := b.clients.fresh(ids...); err != nil {
		return err
	}
	if err := b.pl.JoinBatch(zones, rts, css); err != nil {
		return err
	}
	for _, id := range ids {
		b.clients.add(id)
	}
	return nil
}

// batch resolves the members of a LeaveBatch or MoveBatch to their dense
// indices, refusing an unknown or repeated ID.
func (b *IDBinding) batch(ids []string) ([]int, error) {
	seen := make(map[string]bool, len(ids))
	js := make([]int, len(ids))
	for x, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("%w %q in batch", ErrDuplicateClient, id)
		}
		seen[id] = true
		j, err := b.Index(id)
		if err != nil {
			return nil, err
		}
		js[x] = j
	}
	return js, nil
}

// LeaveBatch removes many clients in one event (see Planner.LeaveBatch):
// removals apply first, in the given order, then one seeded repair scan
// covers the union of vacated zones. Validated before anything is applied
// — an error means no client left.
func (b *IDBinding) LeaveBatch(ids []string) error {
	js, err := b.batch(ids)
	if err != nil {
		return err
	}
	if err := b.pl.LeaveBatch(js); err != nil {
		return err
	}
	// The planner's removal sequence, replayed on the names: each member
	// leaves from where the earlier removals left it.
	for _, id := range ids {
		b.clients.remove(b.clients.idx[id])
	}
	return nil
}

// MoveBatch migrates many clients in one event (see Planner.MoveBatch):
// migrations apply first, then one seeded repair scan covers the union of
// touched zones. Validated before anything is applied.
func (b *IDBinding) MoveBatch(ids []string, zones []int) error {
	if len(zones) != len(ids) {
		return fmt.Errorf("repair: batch of %d ids, %d zones", len(ids), len(zones))
	}
	js, err := b.batch(ids)
	if err != nil {
		return err
	}
	return b.pl.MoveBatch(js, zones)
}

// UpdateServerDelays overlays freshly measured client→server RTTs for one
// server (by client ID, ms) — the column form of UpdateDelays (see
// Planner.UpdateServerDelayColumn). Clients are applied in sorted-ID
// order, so the repair outcome is independent of map iteration order.
func (b *IDBinding) UpdateServerDelays(server string, rtts map[string]float64) error {
	i, err := b.ServerIndex(server)
	if err != nil || len(rtts) == 0 {
		return err
	}
	ids := make([]string, 0, len(rtts))
	for cid := range rtts {
		ids = append(ids, cid)
	}
	sort.Strings(ids)
	js, err := b.clients.indices(ids)
	if err != nil {
		return err
	}
	ds := make([]float64, len(ids))
	for x, cid := range ids {
		ds[x] = rtts[cid]
	}
	return b.pl.UpdateServerDelayColumn(i, js, ds)
}

// DenseIDs names the client behind each dense planner index — the one
// client order: of the planner's problem, of snapshots and of every listing,
// identical before and after recovery. The slice is the caller's.
func (b *IDBinding) DenseIDs() []string { return append([]string(nil), b.clients.ids...) }

// CopyDelays writes the client's current delay row into dst (which must
// have NumServers entries) — the read side of UpdateDelays, used for
// partial refreshes that overlay a few re-measured servers.
func (b *IDBinding) CopyDelays(id string, dst []float64) error {
	j, err := b.Index(id)
	if err != nil {
		return err
	}
	p := b.pl.Problem()
	if len(dst) != p.NumServers() {
		return fmt.Errorf("repair: delay buffer has %d entries, want %d", len(dst), p.NumServers())
	}
	p.CopyCSRow(j, dst)
	return nil
}
