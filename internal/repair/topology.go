// Topology events for the Planner: the infrastructure side of churn.
// Servers are added under load, drained for rolling deploys and removed;
// zones (world shards) are spun up and retired — all in O(affected) on the
// live evaluator, reusing the seeded-scan repair machinery instead of a
// stop-the-world re-solve (DESIGN.md §10).
//
// Draining is the two-step evacuation protocol rolling deploys need:
// DrainServer cordons the server (every placement path skips it — the
// repair scans through the evaluator's cordon flags, full re-solves
// through Options.Cordoned), force-moves each hosted zone to the best
// available destination, re-greedies the contacts that forwarded through
// it, and runs the usual seeded repair pass over the affected zones. The
// drained server then holds nothing and RemoveServer succeeds — or, for a
// deploy that returns the machine, UncordonServer returns it to the
// fleet.
package repair

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Sentinel errors of the topology event surface, following the client
// sentinel scheme (errors.Is across the public layers, no message
// sniffing).
var (
	// ErrUnknownServer reports a reference to a server that is not (or no
	// longer) part of the topology.
	ErrUnknownServer = errors.New("unknown server")
	// ErrUnknownZone reports a reference to a zone that is not (or no
	// longer) part of the topology.
	ErrUnknownZone = errors.New("unknown zone")
	// ErrDuplicateServer reports an AddServer under an ID already present.
	ErrDuplicateServer = errors.New("duplicate server")
	// ErrDuplicateZone reports an AddZone under an ID already present.
	ErrDuplicateZone = errors.New("duplicate zone")
	// ErrServerNotEmpty reports a RemoveServer while the server still hosts
	// zones or serves contacts — drain it first.
	ErrServerNotEmpty = errors.New("server not empty")
	// ErrZoneNotEmpty reports a RetireZone while clients are still in the
	// zone — move them out first.
	ErrZoneNotEmpty = errors.New("zone not empty")
	// ErrLastServer reports an operation that would leave the topology
	// without an available server (removing or draining the last one).
	ErrLastServer = errors.New("last available server")
	// ErrLastZone reports retiring the only zone.
	ErrLastZone = errors.New("last zone")
)

// checkServer resolves a server index.
func (pl *Planner) checkServer(i int) error {
	if i < 0 || i >= pl.prob.NumServers() {
		return fmt.Errorf("repair: %w %d", ErrUnknownServer, i)
	}
	return nil
}

// checkZone resolves a zone index.
func (pl *Planner) checkZone(z int) error {
	if z < 0 || z >= pl.prob.NumZones {
		return fmt.Errorf("repair: %w %d", ErrUnknownZone, z)
	}
	return nil
}

// NumServers returns the current server count.
func (pl *Planner) NumServers() int { return pl.prob.NumServers() }

// NumZones returns the current zone count.
func (pl *Planner) NumZones() int { return pl.prob.NumZones }

// ServerLoad returns server i's current bandwidth load.
func (pl *Planner) ServerLoad(i int) float64 { return pl.ev.ServerLoad(i) }

// ServerCapacity returns server i's nominal capacity. Draining does not
// change it — it only excludes the server from placement (and from the
// available-capacity denominator of Utilization) until UncordonServer.
func (pl *Planner) ServerCapacity(i int) float64 { return pl.prob.ServerCaps[i] }

// Draining reports whether server i is currently drained/cordoned: the
// evaluator's cordon flag, the one cordon set.
func (pl *Planner) Draining(i int) bool { return pl.ev.Cordoned(i) }

// availableServers counts servers that are not draining.
func (pl *Planner) availableServers() int {
	n := 0
	for _, d := range pl.ev.Cordons() {
		if !d {
			n++
		}
	}
	return n
}

// AddServer appends a server with the given capacity, inter-server delay
// row ss (one entry per existing server, in server order) and per-client
// delay column csCol (csCol[j] is client j's measured RTT to the new
// server, in the planner's dense client order — callers without
// measurements supply NaN for unmeasured entries: dense problems resolve
// NaN to the far-out-of-bound sentinel, sparse delay providers fall back
// to their model's prediction; stream real values in later via
// UpdateServerDelayColumn). A nil csCol marks every client unmeasured.
// The new server starts empty and immediately participates in every
// subsequent placement decision. Returns the new dense server index.
// O(clients + servers + zones).
func (pl *Planner) AddServer(capacity float64, ss, csCol []float64) (int, error) {
	return pl.addServer(capacity, ss, csCol, false)
}

// addServer is AddServer with an optional arrival cordon. The cordon is
// set BEFORE the post-event guard runs, so a guard-triggered full solve
// can never place zones on a spare that is about to be flagged drained.
func (pl *Planner) addServer(capacity float64, ss, csCol []float64, cordoned bool) (int, error) {
	p := pl.prob
	if !FinitePos(capacity) {
		return 0, fmt.Errorf("repair: server capacity %v, want finite > 0", capacity)
	}
	if len(ss) != p.NumServers() {
		return 0, fmt.Errorf("repair: inter-server delay row has %d entries, want %d", len(ss), p.NumServers())
	}
	for i, d := range ss {
		if d < 0 || math.IsNaN(d) {
			return 0, fmt.Errorf("repair: inter-server delay to server %d is %v ms, want >= 0", i, d)
		}
	}
	if csCol != nil && len(csCol) != p.NumClients() {
		return 0, fmt.Errorf("repair: client delay column has %d entries, want %d", len(csCol), p.NumClients())
	}
	if err := checkDelays(csCol, "client"); err != nil {
		return 0, err
	}
	start := pl.teleStart()
	i := pl.ev.AddServer(capacity, ss, csCol)
	pl.ev.SetCordon(i, cordoned)
	pl.stats.ServerAdds++
	pl.afterEvent()
	pl.teleEvent(evServerAdd, 1, start)
	return i, nil
}

// RemoveServer deletes server i from the topology. The server must be
// empty — hosting no zones and serving no contacts (ErrServerNotEmpty
// otherwise; DrainServer evacuates both) — and must not be the only
// server. Deletion compacts by renumbering the last server to index i;
// the renumbered server's previous index is returned (or -1 when i was
// last) so ID layers can update their maps. O(clients + servers + zones).
func (pl *Planner) RemoveServer(i int) (moved int, err error) {
	if err := pl.checkServer(i); err != nil {
		return -1, err
	}
	p := pl.prob
	if p.NumServers() == 1 {
		return -1, fmt.Errorf("repair: cannot remove server %d: %w", i, ErrLastServer)
	}
	for z := 0; z < p.NumZones; z++ {
		if pl.ev.ZoneHost(z) == i {
			return -1, fmt.Errorf("repair: %w: server %d hosts zone %d (drain it first)", ErrServerNotEmpty, i, z)
		}
	}
	for j := 0; j < pl.ev.NumClients(); j++ {
		if pl.ev.Contact(j) == i {
			return -1, fmt.Errorf("repair: %w: server %d is a contact for client %d (drain it first)", ErrServerNotEmpty, i, j)
		}
	}
	start := pl.teleStart()
	moved = pl.ev.RemoveServer(i)
	pl.stats.ServerRemoves++
	pl.afterEvent()
	pl.teleEvent(evServerRemove, 1, start)
	return moved, nil
}

// DrainServer evacuates server i and cordons it: its capacity leaves the
// fleet (the repair scans skip it via the evaluator's cordon flags, full
// re-solves via Options.Cordoned — nothing new lands on it, not even as
// spill), every zone it hosts is force-moved to the best available
// destination, contacts forwarding through it are re-placed greedily, and
// one seeded repair scan runs over the affected zones. Afterwards the
// server holds zero zones and zero contacts — ready for RemoveServer, or
// for UncordonServer when the machine returns from its deploy. Draining
// an already-draining server is a no-op (idempotent retries count
// nothing). The last available server cannot be drained.
// O(affected): evacuation work scales with the zones and clients on the
// drained server, never with the whole population.
func (pl *Planner) DrainServer(i int) error {
	if err := pl.checkServer(i); err != nil {
		return err
	}
	p := pl.prob
	if pl.Draining(i) {
		// Idempotent retry: the server is already evacuated and cordoned
		// (nothing can have landed on it since), so there is no event to
		// count and no work to redo.
		return nil
	}
	if pl.availableServers() == 1 {
		return fmt.Errorf("repair: cannot drain server %d: %w", i, ErrLastServer)
	}
	start := pl.teleStart()
	pl.ev.SetCordon(i, true)

	// Forced zone evacuation, ascending zone order (deterministic for
	// every worker count), with GreC-style contact re-placement for
	// clients the move left out of bound — repairZones' post-move rule.
	var touched []int
	for z := 0; z < p.NumZones; z++ {
		if pl.ev.ZoneHost(z) != i {
			continue
		}
		dest := pl.ev.BestZoneHost(z)
		if dest < 0 {
			// Unreachable: availableServers() > 1 guarantees a destination.
			return fmt.Errorf("repair: no destination to evacuate zone %d from server %d", z, i)
		}
		pl.ev.ApplyZoneMove(z, dest)
		pl.stats.ZoneHandoffs++
		for _, j := range pl.ev.ZoneClients(z) {
			if pl.ev.ClientDelay(j) <= p.D {
				continue
			}
			if pl.ev.GreedyContact(j) {
				pl.stats.ContactSwitches++
			}
		}
		touched = append(touched, z)
	}

	// Contacts still forwarding through the drained server re-greedy off
	// it (the cordon excludes it from every candidate set).
	for j := 0; j < pl.ev.NumClients(); j++ {
		if pl.ev.Contact(j) != i {
			continue
		}
		if pl.ev.GreedyContact(j) {
			pl.stats.ContactSwitches++
		}
		touched = append(touched, p.ClientZones[j])
	}

	pl.repairZones(dedupZones(touched)...)
	pl.stats.ServerDrains++
	pl.afterEvent()
	pl.teleEvent(evServerDrain, 1, start)
	return nil
}

// UncordonServer returns a drained server to service — the tail end of a
// rolling deploy, or an autoscale scale-up admitting a warm spare. The
// cordon is lifted and a seeded flow-back scan runs immediately (see
// flowBack), so the returned capacity attracts load now instead of
// sitting empty until the next full re-solve or drift-guard trip — the
// uncordon dead-zone. A no-op when the server is not draining.
func (pl *Planner) UncordonServer(i int) error {
	if err := pl.checkServer(i); err != nil {
		return err
	}
	if !pl.Draining(i) {
		return nil
	}
	start := pl.teleStart()
	pl.ev.SetCordon(i, false)
	pl.flowBack()
	pl.stats.ServerUncordons++
	pl.afterEvent()
	pl.teleEvent(evServerUncordon, 1, start)
	return nil
}

// flowBack is the post-uncordon bounded rebalance: one seeded repair scan
// over every zone in ascending order (each zone takes at most its single
// best improving rehosting, which can now target the returned server),
// then one greedy contact pass over the clients still out of delay bound
// (whose best forwarding hop may now be the returned server). Zones move
// only when the move improves the objective, so flow-back onto the
// returned server happens exactly when it helps — a warm spare whose
// delay column is still unmeasured attracts nothing until measurements
// stream in. Deterministic for every worker count; O(zones +
// out-of-bound clients), never a full re-solve.
func (pl *Planner) flowBack() {
	for z := 0; z < pl.prob.NumZones; z++ {
		pl.repairZones(z)
	}
	for j := 0; j < pl.ev.NumClients(); j++ {
		if pl.ev.ClientDelay(j) <= pl.prob.D {
			continue
		}
		if pl.ev.GreedyContact(j) {
			pl.stats.ContactSwitches++
		}
	}
}

// AddSpareServer registers a warm spare: the server joins the topology
// exactly like AddServer — capacity, inter-server row, per-client delay
// column (nil/NaN marks unmeasured) — but arrives CORDONED, so no
// placement path lands anything on it and its capacity stays out of the
// Utilization denominator. Admission from the pool is UncordonServer
// (O(affected) flow-back, no measure-the-world step); a spare that never
// gets used is removable directly since it holds nothing. Returns the new
// dense server index.
func (pl *Planner) AddSpareServer(capacity float64, ss, csCol []float64) (int, error) {
	return pl.addServer(capacity, ss, csCol, true)
}

// AddZone appends an empty zone and returns its index. host picks the
// initial hosting server; pass host < 0 to auto-place on the least-loaded
// available server (ties to the lowest index). A draining server cannot
// host a new zone.
func (pl *Planner) AddZone(host int) (int, error) {
	if host >= 0 {
		if err := pl.checkServer(host); err != nil {
			return 0, err
		}
		if pl.Draining(host) {
			return 0, fmt.Errorf("repair: cannot place zone on draining server %d", host)
		}
	} else {
		host = -1
		var best float64
		for s := 0; s < pl.prob.NumServers(); s++ {
			if pl.Draining(s) {
				continue
			}
			if l := pl.ev.ServerLoad(s); host < 0 || l < best {
				host, best = s, l
			}
		}
		if host < 0 {
			return 0, fmt.Errorf("repair: cannot place zone: %w", ErrLastServer)
		}
	}
	start := pl.teleStart()
	z := pl.ev.AddZone(host)
	pl.stats.ZoneAdds++
	pl.afterEvent()
	pl.teleEvent(evZoneAdd, 1, start)
	return z, nil
}

// RetireZone deletes zone z from the topology. The zone must be empty
// (ErrZoneNotEmpty otherwise — move or remove its clients first) and must
// not be the only zone. Deletion compacts by renumbering the last zone to
// index z; the renumbered zone's previous index is returned (or -1 when z
// was last) so ID layers can update their maps.
func (pl *Planner) RetireZone(z int) (moved int, err error) {
	if err := pl.checkZone(z); err != nil {
		return -1, err
	}
	if pl.prob.NumZones == 1 {
		return -1, fmt.Errorf("repair: cannot retire zone %d: %w", z, ErrLastZone)
	}
	if n := len(pl.ev.ZoneClients(z)); n > 0 {
		return -1, fmt.Errorf("repair: %w: zone %d still has %d clients", ErrZoneNotEmpty, z, n)
	}
	start := pl.teleStart()
	moved = pl.ev.RemoveZone(z)
	pl.stats.ZoneRetires++
	pl.afterEvent()
	pl.teleEvent(evZoneRetire, 1, start)
	return moved, nil
}

// JoinBatch admits many clients in one event — the flash-crowd form of
// Join. All memberships are applied first (each client attached greedily,
// exactly like a single Join), then ONE seeded repair scan runs over the
// union of touched zones, instead of one scan per client. The whole batch
// is validated before anything is applied, so an error means no client
// was admitted. The new clients take the next indices in batch order; the
// drift guard runs once for the whole batch.
func (pl *Planner) JoinBatch(zones []int, rts []float64, css [][]float64) error {
	p := pl.prob
	if len(rts) != len(zones) || len(css) != len(zones) {
		return fmt.Errorf("repair: batch of %d zones, %d RTs, %d delay rows", len(zones), len(rts), len(css))
	}
	for x, zone := range zones {
		if zone < 0 || zone >= p.NumZones {
			return fmt.Errorf("repair: batch client %d: zone %d outside [0,%d)", x, zone, p.NumZones)
		}
		if !FinitePos(rts[x]) {
			return fmt.Errorf("repair: batch client %d: RT %v, want finite > 0", x, rts[x])
		}
		if len(css[x]) != p.NumServers() {
			return fmt.Errorf("repair: batch client %d: delay row has %d entries, want %d", x, len(css[x]), p.NumServers())
		}
		if err := checkDelays(css[x], "server"); err != nil {
			return fmt.Errorf("repair: batch client %d: %w", x, err)
		}
	}
	start := pl.teleStart()
	for x, zone := range zones {
		j := pl.ev.AddClient(zone, rts[x], css[x])
		if pl.ev.GreedyContact(j) {
			pl.stats.ContactSwitches++
		}
	}
	pl.stats.Joins += len(zones)
	pl.batchZones = append(pl.batchZones[:0], zones...)
	pl.repairZones(dedupZones(pl.batchZones)...)
	pl.afterEventN(len(zones))
	pl.teleEvent(evJoinBatch, len(zones), start)
	return nil
}

// checkBatch validates the members of a LeaveBatch or MoveBatch — every
// index live, none repeated — and leaves batchPos mapping each to its
// position in js. The caller clears batchPos.
func (pl *Planner) checkBatch(js []int) error {
	for x, j := range js {
		if err := pl.checkClient(j); err != nil {
			return fmt.Errorf("repair: batch client %d: %w", x, err)
		}
		if _, dup := pl.batchPos[j]; dup {
			return fmt.Errorf("repair: batch client %d: index %d repeated", x, j)
		}
		pl.batchPos[j] = x
	}
	return nil
}

// LeaveBatch removes many clients in one event — the mass-exodus form of
// Leave. js are indices as they stand at the call; the clients leave in
// the given order, each removal compacting like Leave's, so a member that
// an earlier removal renumbered still leaves (js itself is not modified).
// All removals apply first, then ONE seeded repair scan runs over the
// union of vacated zones. The whole batch is validated (every index live,
// no duplicates) before anything is applied, so an error means no client
// left. The drift guard runs once for the whole batch.
func (pl *Planner) LeaveBatch(js []int) error {
	pos := pl.batchPos
	defer clear(pos)
	if err := pl.checkBatch(js); err != nil {
		return err
	}
	start := pl.teleStart()
	cur := slices.Clone(js)
	touched := pl.batchZones[:0]
	for x := range cur {
		j := cur[x]
		touched = append(touched, pl.prob.ClientZones[j])
		delete(pos, j)
		// The last client takes index j: if it is a member still to
		// leave, it does so from j.
		if moved := pl.ev.RemoveClient(j); moved >= 0 {
			if y, ok := pos[moved]; ok {
				cur[y], pos[j] = j, y
				delete(pos, moved)
			}
		}
	}
	pl.stats.Leaves += len(js)
	pl.batchZones = touched
	pl.repairZones(dedupZones(touched)...)
	pl.afterEventN(len(js))
	pl.teleEvent(evLeaveBatch, len(js), start)
	return nil
}

// MoveBatch migrates many clients in one event — the flash-migration form
// of Move (a portal event pulling a crowd into one zone). All migrations
// apply first (each client re-attached greedily, exactly like a single
// Move), then ONE seeded repair scan covers the union of vacated and
// entered zones. The whole batch is validated before anything is applied.
// Same-zone entries count as events but move nothing, matching Move.
func (pl *Planner) MoveBatch(js []int, zones []int) error {
	if len(zones) != len(js) {
		return fmt.Errorf("repair: batch of %d clients, %d zones", len(js), len(zones))
	}
	defer clear(pl.batchPos)
	if err := pl.checkBatch(js); err != nil {
		return err
	}
	for x, z := range zones {
		if z < 0 || z >= pl.prob.NumZones {
			return fmt.Errorf("repair: batch client %d: zone %d outside [0,%d)", x, z, pl.prob.NumZones)
		}
	}
	start := pl.teleStart()
	touched := pl.batchZones[:0]
	for x, j := range js {
		old := pl.prob.ClientZones[j]
		if zones[x] == old {
			continue
		}
		pl.ev.MoveClient(j, zones[x])
		if pl.ev.GreedyContact(j) {
			pl.stats.ContactSwitches++
		}
		touched = append(touched, old, zones[x])
	}
	pl.stats.Moves += len(js)
	pl.batchZones = touched
	pl.repairZones(dedupZones(touched)...)
	pl.afterEventN(len(js))
	pl.teleEvent(evMoveBatch, len(js), start)
	return nil
}

// UpdateServerDelayColumn overlays freshly measured client→server RTTs
// for ONE server across many clients — the column form of UpdateDelays,
// the natural shape when a just-added server's measurements stream in.
// Client js[x]'s delay to server i becomes ds[x]; each refreshed client is
// re-attached greedily, then one seeded repair scan runs over the union
// of touched zones. The whole column is validated before anything is
// applied. Counts as one DelayUpdate event.
func (pl *Planner) UpdateServerDelayColumn(i int, js []int, ds []float64) error {
	if err := pl.checkServer(i); err != nil {
		return err
	}
	if len(ds) != len(js) {
		return fmt.Errorf("repair: %d clients but %d delays", len(js), len(ds))
	}
	for _, j := range js {
		if err := pl.checkClient(j); err != nil {
			return err
		}
	}
	if err := checkDelays(ds, "client"); err != nil {
		return err
	}
	start := pl.teleStart()
	touched := make([]int, 0, len(js))
	for x, j := range js {
		pl.ev.SetClientServerDelay(j, i, ds[x])
		if pl.ev.GreedyContact(j) {
			pl.stats.ContactSwitches++
		}
		touched = append(touched, pl.prob.ClientZones[j])
	}
	pl.stats.DelayUpdates++
	pl.repairZones(dedupZones(touched)...)
	pl.afterEvent()
	pl.teleEvent(evDelayColumn, 1, start)
	return nil
}

// dedupZones sorts and deduplicates a zone list in place — the seeded
// repair scan visits each touched zone once, in ascending order, so batch
// repairs are deterministic regardless of event composition.
func dedupZones(zones []int) []int {
	if len(zones) < 2 {
		return zones
	}
	sort.Ints(zones)
	out := zones[:1]
	for _, z := range zones[1:] {
		if z != out[len(out)-1] {
			out = append(out, z)
		}
	}
	return out
}

// ServerZoneCounts returns, for each server, the number of zones it
// currently hosts — the inventory view behind GET /v1/servers.
func (pl *Planner) ServerZoneCounts() []int {
	out := make([]int, pl.prob.NumServers())
	for z := 0; z < pl.prob.NumZones; z++ {
		out[pl.ev.ZoneHost(z)]++
	}
	return out
}
