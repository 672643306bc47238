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

// IDBinding feeds string-keyed clients into a Planner: the binding for
// callers that address clients by external IDs — the public Cluster API and
// the director's HTTP surface. It owns the ID ↔ handle map and keeps it
// consistent with the planner: an ID is present exactly while its planner
// handle is live. Clients have one order, the planner's dense order
// (DenseIDs).
//
// Beyond clients, the binding generalizes to server and zone handles:
// NameTopology registers string IDs for the planner's servers and zones,
// after which the topology events (AddServer, RemoveServer, DrainServer,
// UncordonServer, AddZone, RetireZone) are addressable by ID — the
// binding tracks the planner's swap-remove renumbering so IDs stay stable
// while dense indices shift.
//
// Errors wrap the sentinel values above without a package prefix, so the
// public layers can pass them through verbatim.
type IDBinding struct {
	pl      *Planner
	handles map[string]int
	ids     []string // handle → ID of the live client behind it

	serverIDs []string // dense server order; nil until NameTopology
	serverIdx map[string]int
	zoneIDs   []string // dense zone order; nil until NameTopology
	zoneIdx   map[string]int
}

// NewIDBinding pairs a planner with the IDs of the clients it already
// holds: ids[j] names the client behind handle j, exactly how New and
// NewWithAssignment issue handles (0..NumClients-1 in problem order).
// Pass nil for an empty planner.
func NewIDBinding(pl *Planner, ids []string) (*IDBinding, error) {
	if got, want := len(ids), pl.NumClients(); got != want {
		return nil, fmt.Errorf("repair: %d ids for %d planner clients", got, want)
	}
	b := &IDBinding{
		pl:      pl,
		handles: make(map[string]int, len(ids)),
		ids:     append([]string(nil), ids...),
	}
	for h, id := range ids {
		if _, dup := b.handles[id]; dup {
			return nil, fmt.Errorf("%w %q", ErrDuplicateClient, id)
		}
		b.handles[id] = h
	}
	return b, nil
}

// Planner returns the bound planner.
func (b *IDBinding) Planner() *Planner { return b.pl }

// Len returns the current population.
func (b *IDBinding) Len() int { return len(b.handles) }

// Handle resolves an ID to its stable planner handle.
func (b *IDBinding) Handle(id string) (int, error) {
	h, ok := b.handles[id]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownClient, id)
	}
	return h, nil
}

// Join admits a client under a fresh ID (see Planner.Join for the zone,
// rt and cs semantics).
func (b *IDBinding) Join(id string, zone int, rt float64, cs []float64) error {
	if _, dup := b.handles[id]; dup {
		return fmt.Errorf("%w %q", ErrDuplicateClient, id)
	}
	h, err := b.pl.Join(zone, rt, cs)
	if err != nil {
		return err
	}
	b.bind(id, h)
	return nil
}

// bind records id as the client behind the freshly issued handle h.
func (b *IDBinding) bind(id string, h int) {
	b.handles[id] = h
	if h == len(b.ids) {
		b.ids = append(b.ids, id)
	} else {
		b.ids[h] = id // a released handle, reissued
	}
}

// Leave removes the client behind id. The ID becomes available for reuse.
func (b *IDBinding) Leave(id string) error {
	h, err := b.Handle(id)
	if err != nil {
		return err
	}
	if err := b.pl.Leave(h); err != nil {
		return err
	}
	delete(b.handles, id)
	return nil
}

// Move migrates the client's avatar to newZone (see Planner.Move).
func (b *IDBinding) Move(id string, newZone int) error {
	h, err := b.Handle(id)
	if err != nil {
		return err
	}
	return b.pl.Move(h, newZone)
}

// UpdateDelays replaces the client's measured delay row (copied; see
// Planner.UpdateDelays).
func (b *IDBinding) UpdateDelays(id string, cs []float64) error {
	h, err := b.Handle(id)
	if err != nil {
		return err
	}
	return b.pl.UpdateDelays(h, cs)
}

// SetRT updates the client's bandwidth requirement (see Planner.SetRT).
func (b *IDBinding) SetRT(id string, rt float64) error {
	h, err := b.Handle(id)
	if err != nil {
		return err
	}
	return b.pl.SetRT(h, rt)
}

// Contact returns the client's current contact server.
func (b *IDBinding) Contact(id string) (int, error) {
	h, err := b.Handle(id)
	if err != nil {
		return 0, err
	}
	return b.pl.Contact(h)
}

// Delay returns the client's current effective delay (ms).
func (b *IDBinding) Delay(id string) (float64, error) {
	h, err := b.Handle(id)
	if err != nil {
		return 0, err
	}
	return b.pl.ClientDelay(h)
}

// Zone returns the client's current zone index.
func (b *IDBinding) Zone(id string) (int, error) {
	h, err := b.Handle(id)
	if err != nil {
		return 0, err
	}
	j, err := b.pl.Index(h)
	if err != nil {
		return 0, err
	}
	return b.pl.Problem().ClientZones[j], nil
}

// NameTopology registers server and zone IDs for the planner's current
// topology: serverIDs[i] names dense server index i, zoneIDs[z] dense
// zone index z. Required before any of the ID-keyed topology methods;
// the binding keeps the maps consistent across the planner's swap-remove
// renumbering from then on.
func (b *IDBinding) NameTopology(serverIDs, zoneIDs []string) error {
	if got, want := len(serverIDs), b.pl.NumServers(); got != want {
		return fmt.Errorf("repair: %d server ids for %d servers", got, want)
	}
	if got, want := len(zoneIDs), b.pl.NumZones(); got != want {
		return fmt.Errorf("repair: %d zone ids for %d zones", got, want)
	}
	sidx := make(map[string]int, len(serverIDs))
	for i, id := range serverIDs {
		if _, dup := sidx[id]; dup {
			return fmt.Errorf("%w %q", ErrDuplicateServer, id)
		}
		sidx[id] = i
	}
	zidx := make(map[string]int, len(zoneIDs))
	for z, id := range zoneIDs {
		if _, dup := zidx[id]; dup {
			return fmt.Errorf("%w %q", ErrDuplicateZone, id)
		}
		zidx[id] = z
	}
	b.serverIDs = append([]string(nil), serverIDs...)
	b.serverIdx = sidx
	b.zoneIDs = append([]string(nil), zoneIDs...)
	b.zoneIdx = zidx
	return nil
}

// ServerIndex resolves a server ID to its current dense index.
func (b *IDBinding) ServerIndex(id string) (int, error) {
	i, ok := b.serverIdx[id]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownServer, id)
	}
	return i, nil
}

// ZoneIndex resolves a zone ID to its current dense index.
func (b *IDBinding) ZoneIndex(id string) (int, error) {
	z, ok := b.zoneIdx[id]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownZone, id)
	}
	return z, nil
}

// ServerIndexOf is ServerIndex without error construction — the lookup
// form hot paths (row resolution) use.
func (b *IDBinding) ServerIndexOf(id string) (int, bool) {
	i, ok := b.serverIdx[id]
	return i, ok
}

// ServerID names the server at dense index i.
func (b *IDBinding) ServerID(i int) string { return b.serverIDs[i] }

// ZoneID names the zone at dense index z.
func (b *IDBinding) ZoneID(z int) string { return b.zoneIDs[z] }

// ServerNames returns the server IDs in dense order — the binding's own
// slice, read-only for callers, invalidated by the next topology event.
func (b *IDBinding) ServerNames() []string { return b.serverIDs }

// ZoneNames returns the zone IDs in dense order — the binding's own
// slice, read-only for callers, invalidated by the next topology event.
func (b *IDBinding) ZoneNames() []string { return b.zoneIDs }

// AddServer registers a server under a fresh ID. clientRTTs supplies
// measured RTTs by client ID for the new server's delay column; clients
// absent from it are unmeasured (NaN: the delay store applies its default —
// a provider's prediction, or the far-out-of-bound UnmeasuredDelayMs that
// keeps the server unattractive until UpdateServerDelays supplies real
// values). See Planner.AddServer for the capacity and ss semantics; spare
// registers a warm spare, cordoned on arrival (Planner.AddSpareServer).
func (b *IDBinding) AddServer(id string, capacity float64, ss []float64, clientRTTs map[string]float64, spare bool) error {
	if _, dup := b.serverIdx[id]; dup {
		return fmt.Errorf("%w %q", ErrDuplicateServer, id)
	}
	for cid, d := range clientRTTs {
		if _, ok := b.handles[cid]; !ok {
			return fmt.Errorf("server %q RTT: %w %q", id, ErrUnknownClient, cid)
		}
		if d < 0 {
			return fmt.Errorf("server %q RTT to client %q is %v ms, want >= 0", id, cid, d)
		}
	}
	col := make([]float64, b.pl.NumClients())
	for i := range col {
		col[i] = math.NaN()
	}
	for cid, d := range clientRTTs {
		j, err := b.Index(cid)
		if err != nil {
			return err
		}
		col[j] = d
	}
	add := b.pl.AddServer
	if spare {
		add = b.pl.AddSpareServer
	}
	i, err := add(capacity, ss, col)
	if err != nil {
		return err
	}
	b.serverIdx[id] = i
	b.serverIDs = append(b.serverIDs, id)
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
	moved, err := b.pl.RemoveServer(i)
	if err != nil {
		return err
	}
	last := len(b.serverIDs) - 1
	delete(b.serverIdx, id)
	if moved >= 0 {
		movedID := b.serverIDs[moved]
		b.serverIDs[i] = movedID
		b.serverIdx[movedID] = i
	}
	b.serverIDs = b.serverIDs[:last]
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

// Draining reports whether the server behind id is currently draining.
func (b *IDBinding) Draining(id string) (bool, error) {
	i, err := b.ServerIndex(id)
	if err != nil {
		return false, err
	}
	return b.pl.Draining(i), nil
}

// AddZone registers a zone under a fresh ID. hostID picks the initial
// hosting server; empty auto-places on the least-loaded available server.
func (b *IDBinding) AddZone(id, hostID string) error {
	if _, dup := b.zoneIdx[id]; dup {
		return fmt.Errorf("%w %q", ErrDuplicateZone, id)
	}
	host := -1
	if hostID != "" {
		var err error
		if host, err = b.ServerIndex(hostID); err != nil {
			return err
		}
	}
	z, err := b.pl.AddZone(host)
	if err != nil {
		return err
	}
	b.zoneIdx[id] = z
	b.zoneIDs = append(b.zoneIDs, id)
	return nil
}

// RetireZone deletes the empty zone behind id (see Planner.RetireZone).
// The binding follows the planner's swap-remove: the last zone's ID takes
// over the vacated dense index.
func (b *IDBinding) RetireZone(id string) error {
	z, err := b.ZoneIndex(id)
	if err != nil {
		return err
	}
	moved, err := b.pl.RetireZone(z)
	if err != nil {
		return err
	}
	last := len(b.zoneIDs) - 1
	delete(b.zoneIdx, id)
	if moved >= 0 {
		movedID := b.zoneIDs[moved]
		b.zoneIDs[z] = movedID
		b.zoneIdx[movedID] = z
	}
	b.zoneIDs = b.zoneIDs[:last]
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
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, dup := b.handles[id]; dup || seen[id] {
			return fmt.Errorf("%w %q", ErrDuplicateClient, id)
		}
		seen[id] = true
	}
	handles, err := b.pl.JoinBatch(zones, rts, css)
	if err != nil {
		return err
	}
	for x, id := range ids {
		b.bind(id, handles[x])
	}
	return nil
}

// LeaveBatch removes many clients in one event (see Planner.LeaveBatch):
// removals apply first, then one seeded repair scan covers the union of
// vacated zones. Validated before anything is applied — an error means no
// client left.
func (b *IDBinding) LeaveBatch(ids []string) error {
	seen := make(map[string]bool, len(ids))
	handles := make([]int, len(ids))
	for x, id := range ids {
		if seen[id] {
			return fmt.Errorf("%w %q in batch", ErrDuplicateClient, id)
		}
		seen[id] = true
		h, err := b.Handle(id)
		if err != nil {
			return err
		}
		handles[x] = h
	}
	if err := b.pl.LeaveBatch(handles); err != nil {
		return err
	}
	for _, id := range ids {
		delete(b.handles, id)
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
	seen := make(map[string]bool, len(ids))
	handles := make([]int, len(ids))
	for x, id := range ids {
		if seen[id] {
			return fmt.Errorf("%w %q in batch", ErrDuplicateClient, id)
		}
		seen[id] = true
		h, err := b.Handle(id)
		if err != nil {
			return err
		}
		handles[x] = h
	}
	return b.pl.MoveBatch(handles, zones)
}

// UpdateServerDelays overlays freshly measured client→server RTTs for one
// server (by client ID, ms) — the column form of UpdateDelays (see
// Planner.UpdateServerDelayColumn). Clients are applied in sorted-ID
// order, so the repair outcome is independent of map iteration order.
func (b *IDBinding) UpdateServerDelays(server string, rtts map[string]float64) error {
	i, err := b.ServerIndex(server)
	if err != nil {
		return err
	}
	if len(rtts) == 0 {
		return nil
	}
	ids := make([]string, 0, len(rtts))
	for cid := range rtts {
		ids = append(ids, cid)
	}
	sort.Strings(ids)
	handles := make([]int, len(ids))
	ds := make([]float64, len(ids))
	for x, cid := range ids {
		h, err := b.Handle(cid)
		if err != nil {
			return err
		}
		handles[x] = h
		ds[x] = rtts[cid]
	}
	return b.pl.UpdateServerDelayColumn(i, handles, ds)
}

// DenseIDs names the client behind each dense planner index — the one
// client order: of the planner's problem, of snapshots and of every listing,
// identical before and after recovery.
func (b *IDBinding) DenseIDs() []string {
	ids := make([]string, len(b.pl.hnd))
	for j, h := range b.pl.hnd {
		ids[j] = b.ids[h]
	}
	return ids
}

// zoneIndices resolves a list of zone IDs.
func (b *IDBinding) zoneIndices(ids []string) ([]int, error) {
	zs := make([]int, len(ids))
	for x, id := range ids {
		z, err := b.ZoneIndex(id)
		if err != nil {
			return nil, err
		}
		zs[x] = z
	}
	return zs, nil
}

// Index resolves an ID straight to the planner's current dense client
// index.
func (b *IDBinding) Index(id string) (int, error) {
	h, err := b.Handle(id)
	if err != nil {
		return 0, err
	}
	return b.pl.Index(h)
}

// CopyDelays writes the client's current delay row into dst (which must
// have NumServers entries) — the read side of UpdateDelays, used for
// partial refreshes that overlay a few re-measured servers.
func (b *IDBinding) CopyDelays(id string, dst []float64) error {
	h, err := b.Handle(id)
	if err != nil {
		return err
	}
	j, err := b.pl.Index(h)
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
