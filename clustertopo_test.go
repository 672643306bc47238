package dvecap

// Tests for the live-topology session surface: server/zone add, remove and
// drain on an open ClusterSession, batch join, and the grow-then-solve
// equivalence discipline — a session-grown topology must be bit-identical
// to an equivalently built static cluster, at every worker count.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// synthRTT is a deterministic synthetic RTT: client x (by number) to
// server i (by number), used to build grown and static fixtures from the
// same ground truth.
func synthRTT(x, i int) float64 {
	return float64(10 + (x*37+i*53)%200)
}

func synthServerRTT(a, b int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	return float64(15 + (a*29+b*41)%120)
}

// topoFixture describes the grown world both construction paths converge
// on: base servers/zones/clients plus one added server, one added zone,
// and a batch of late joiners.
type topoFixture struct {
	baseServers, baseZones, baseClients int
	lateClients                         int
}

func defaultTopoFixture() topoFixture {
	return topoFixture{baseServers: 4, baseZones: 8, baseClients: 60, lateClients: 20}
}

func (f topoFixture) serverID(i int) string { return fmt.Sprintf("s%02d", i) }
func (f topoFixture) zoneID(z int) string   { return fmt.Sprintf("z%02d", z) }
func (f topoFixture) clientID(x int) string { return fmt.Sprintf("c%03d", x) }

// addClient registers client x with its full synthetic RTT row over m
// servers, into zone x mod zones.
func (f topoFixture) clientSpec(x, m, zones int) ClientSpec {
	rtts := make(map[string]float64, m)
	for i := 0; i < m; i++ {
		rtts[f.serverID(i)] = synthRTT(x, i)
	}
	return ClientSpec{
		Zone:          f.zoneID(x % zones),
		BandwidthMbps: 1.5,
		RTTs:          rtts,
	}
}

// buildBase builds the pre-growth cluster (servers 0..baseServers-1, zones
// 0..baseZones-1, clients 0..baseClients-1).
func (f topoFixture) buildBase(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(120)
	for i := 0; i < f.baseServers; i++ {
		rtts := make(map[string]float64, i)
		for l := 0; l < i; l++ {
			rtts[f.serverID(l)] = synthServerRTT(i, l)
		}
		if err := c.AddServer(f.serverID(i), ServerSpec{CapacityMbps: 120, RTTs: rtts}); err != nil {
			t.Fatal(err)
		}
	}
	for z := 0; z < f.baseZones; z++ {
		if err := c.AddZone(f.zoneID(z)); err != nil {
			t.Fatal(err)
		}
	}
	for x := 0; x < f.baseClients; x++ {
		if err := c.AddClient(f.clientID(x), f.clientSpec(x, f.baseServers, f.baseZones)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// buildStatic builds the post-growth cluster directly: one more server,
// one more zone, and the late clients all present from the start.
func (f topoFixture) buildStatic(t *testing.T) *Cluster {
	t.Helper()
	m := f.baseServers + 1
	c := NewCluster(120)
	for i := 0; i < m; i++ {
		rtts := make(map[string]float64, i)
		for l := 0; l < i; l++ {
			rtts[f.serverID(l)] = synthServerRTT(i, l)
		}
		if err := c.AddServer(f.serverID(i), ServerSpec{CapacityMbps: 120, RTTs: rtts}); err != nil {
			t.Fatal(err)
		}
	}
	for z := 0; z < f.baseZones+1; z++ {
		if err := c.AddZone(f.zoneID(z)); err != nil {
			t.Fatal(err)
		}
	}
	for x := 0; x < f.baseClients+f.lateClients; x++ {
		spec := f.clientSpec(x, m, f.baseZones)
		if x >= f.baseClients {
			// Late joiners enter the new zone.
			spec.Zone = f.zoneID(f.baseZones)
		}
		if err := c.AddClient(f.clientID(x), spec); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// growSession replays the growth on a live session: AddServer (with full
// measured client columns), AddZone, then one JoinBatch of the late
// clients into the new zone.
func (f topoFixture) growSession(t *testing.T, sess *ClusterSession) {
	t.Helper()
	newSrv := f.baseServers
	rtts := make(map[string]float64, newSrv)
	for l := 0; l < newSrv; l++ {
		rtts[f.serverID(l)] = synthServerRTT(newSrv, l)
	}
	clientRTTs := make(map[string]float64, f.baseClients)
	for x := 0; x < f.baseClients; x++ {
		clientRTTs[f.clientID(x)] = synthRTT(x, newSrv)
	}
	if err := sess.AddServer(f.serverID(newSrv), ServerSpec{
		CapacityMbps: 120,
		RTTs:         rtts,
		ClientRTTs:   clientRTTs,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess.AddZone(f.zoneID(f.baseZones), ZoneSpec{}); err != nil {
		t.Fatal(err)
	}
	joins := make([]ClientJoin, 0, f.lateClients)
	for x := f.baseClients; x < f.baseClients+f.lateClients; x++ {
		spec := f.clientSpec(x, f.baseServers+1, f.baseZones)
		spec.Zone = f.zoneID(f.baseZones)
		joins = append(joins, ClientJoin{ID: f.clientID(x), Spec: spec})
	}
	if err := sess.JoinBatch(joins); err != nil {
		t.Fatal(err)
	}
}

// TestGrownTopologyMatchesStaticCluster is the tentpole equivalence: a
// session that grows its topology live (AddServer with measured columns,
// AddZone, JoinBatch) and then re-solves must be bit-identical — results,
// populations — to a session opened over the statically built grown
// cluster, at every worker count; and the grown session's full trajectory
// (result AND repair counters) must be identical across worker counts.
func TestGrownTopologyMatchesStaticCluster(t *testing.T) {
	f := defaultTopoFixture()
	type outcome struct {
		res   *Result
		hosts map[string]string
		stats SessionStats
	}
	grow := func(workers int) outcome {
		sess, err := f.buildBase(t).Open("GreZ-GreC", WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		f.growSession(t, sess)
		if err := sess.Resolve(); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Result()
		if err != nil {
			t.Fatal(err)
		}
		hosts := map[string]string{}
		for _, z := range sess.ZoneIDs() {
			h, err := sess.ZoneHost(z)
			if err != nil {
				t.Fatal(err)
			}
			hosts[z] = h
		}
		return outcome{res: res, hosts: hosts, stats: sess.Stats()}
	}
	static := func(workers int) outcome {
		sess, err := f.buildStatic(t).Open("GreZ-GreC", WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Result()
		if err != nil {
			t.Fatal(err)
		}
		hosts := map[string]string{}
		for _, z := range sess.ZoneIDs() {
			h, err := sess.ZoneHost(z)
			if err != nil {
				t.Fatal(err)
			}
			hosts[z] = h
		}
		return outcome{res: res, hosts: hosts, stats: sess.Stats()}
	}

	base := grow(1)
	for _, workers := range []int{1, 4} {
		g, s := grow(workers), static(workers)
		// Grown ≡ static: the solved assignment, per-client delays and
		// aggregate quality coincide exactly (GreZ-GreC is deterministic,
		// and the grown problem is the static problem).
		if !reflect.DeepEqual(g.res.ZoneServer, s.res.ZoneServer) {
			t.Fatalf("workers=%d: zone hosting: grown %v, static %v", workers, g.res.ZoneServer, s.res.ZoneServer)
		}
		if !reflect.DeepEqual(g.res.ClientContact, s.res.ClientContact) {
			t.Fatalf("workers=%d: contacts diverge between grown and static session", workers)
		}
		if !reflect.DeepEqual(g.res.Delays, s.res.Delays) {
			t.Fatalf("workers=%d: delays diverge between grown and static session", workers)
		}
		if !reflect.DeepEqual(g.res.ClientIDs, s.res.ClientIDs) {
			t.Fatalf("workers=%d: client ID order diverges", workers)
		}
		if g.res.PQoS != s.res.PQoS || g.res.WithQoS != s.res.WithQoS || g.res.Utilization != s.res.Utilization {
			t.Fatalf("workers=%d: metrics diverge: grown (%v %d %v) static (%v %d %v)", workers,
				g.res.PQoS, g.res.WithQoS, g.res.Utilization, s.res.PQoS, s.res.WithQoS, s.res.Utilization)
		}
		if !reflect.DeepEqual(g.hosts, s.hosts) {
			t.Fatalf("workers=%d: ID-keyed zone hosting diverges", workers)
		}
		// Worker-count invariance of the grown trajectory, counters
		// included.
		if !reflect.DeepEqual(g.res, base.res) || g.stats != base.stats {
			t.Fatalf("workers=%d: grown trajectory differs from workers=1 (stats %+v vs %+v)", workers, g.stats, base.stats)
		}
	}
}

// TestSessionDrainServer covers the drain protocol on the public surface:
// after DrainServer the server holds zero zones and zero contacts, no
// full re-solve fired while the drift guard was quiet, RemoveServer
// succeeds, and the session keeps operating on the renumbered topology.
func TestSessionDrainServer(t *testing.T) {
	for _, workers := range []int{1, 4} {
		f := defaultTopoFixture()
		sess, err := f.buildBase(t).Open("GreZ-GreC", WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		const victim = "s01"
		solvesBefore := sess.Stats().FullSolves
		if err := sess.DrainServer(victim); err != nil {
			t.Fatal(err)
		}
		if got := sess.Stats().FullSolves; got != solvesBefore {
			t.Fatalf("workers=%d: drain triggered a full re-solve (%d → %d) with a quiet guard", workers, solvesBefore, got)
		}
		var drainedRow *ServerStatus
		servers := sess.Servers()
		for i := range servers {
			if servers[i].ID == victim {
				drainedRow = &servers[i]
			}
		}
		if drainedRow == nil || !drainedRow.Draining {
			t.Fatalf("workers=%d: Servers() does not report %s draining: %+v", workers, victim, sess.Servers())
		}
		// Tolerance, not equality: incremental load maintenance leaves
		// float dust on an emptied server.
		if drainedRow.Zones != 0 || drainedRow.LoadMbps > 1e-9 || drainedRow.LoadMbps < -1e-9 {
			t.Fatalf("workers=%d: drained server still loaded: %+v", workers, *drainedRow)
		}
		if drainedRow.CapacityMbps != 120 {
			t.Fatalf("workers=%d: nominal capacity = %v, want 120", workers, drainedRow.CapacityMbps)
		}
		for _, id := range sess.ClientIDs() {
			cl, err := sess.Client(id)
			if err != nil {
				t.Fatal(err)
			}
			if cl.Contact == victim || cl.Target == victim {
				t.Fatalf("workers=%d: client %s still touches drained server (%+v)", workers, id, cl)
			}
		}

		// Uncordon round-trips; drain again and remove.
		if err := sess.UncordonServer(victim); err != nil {
			t.Fatal(err)
		}
		if err := sess.DrainServer(victim); err != nil {
			t.Fatal(err)
		}
		if err := sess.RemoveServer(victim); err != nil {
			t.Fatal(err)
		}
		if sess.NumServers() != f.baseServers-1 {
			t.Fatalf("workers=%d: %d servers after removal, want %d", workers, sess.NumServers(), f.baseServers-1)
		}
		if _, err := sess.Client("c000"); err != nil {
			t.Fatal(err)
		}
		// The renumbered topology still admits clients (rows are one
		// entry shorter now).
		spec := ClientSpec{Zone: f.zoneID(0), BandwidthMbps: 1, RTTs: map[string]float64{}}
		for _, sid := range sess.ServerIDs() {
			spec.RTTs[sid] = 42
		}
		if err := sess.Join("late", spec); err != nil {
			t.Fatalf("workers=%d: join after removal: %v", workers, err)
		}
		if res, err := sess.Result(); err != nil || res.Clients != f.baseClients+1 {
			t.Fatalf("workers=%d: result after topology churn: %v (err %v)", workers, res, err)
		}
	}
}

// TestSessionTopologyErrors covers the sentinel surface of the new
// methods with errors.Is.
func TestSessionTopologyErrors(t *testing.T) {
	f := defaultTopoFixture()
	sess, err := f.buildBase(t).Open("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RemoveServer("s00"); !errors.Is(err, ErrServerNotEmpty) {
		t.Fatalf("RemoveServer(loaded) = %v, want ErrServerNotEmpty", err)
	}
	if err := sess.RemoveServer("nope"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("RemoveServer(unknown) = %v, want ErrUnknownServer", err)
	}
	if err := sess.DrainServer("nope"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("DrainServer(unknown) = %v, want ErrUnknownServer", err)
	}
	if err := sess.RetireZone("z00"); !errors.Is(err, ErrZoneNotEmpty) {
		t.Fatalf("RetireZone(populated) = %v, want ErrZoneNotEmpty", err)
	}
	if err := sess.RetireZone("atlantis"); !errors.Is(err, ErrUnknownZone) {
		t.Fatalf("RetireZone(unknown) = %v, want ErrUnknownZone", err)
	}
	if err := sess.AddZone("z-pinned", ZoneSpec{Host: "nope"}); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("AddZone(unknown host) = %v, want ErrUnknownServer", err)
	}
	if err := sess.AddServer("s00", ServerSpec{CapacityMbps: 1, RTTs: map[string]float64{}}); err == nil {
		t.Fatal("duplicate AddServer succeeded")
	}
	if err := sess.AddServer("sX", ServerSpec{CapacityMbps: 1, RTTs: map[string]float64{"s00": 10}}); err == nil {
		t.Fatal("AddServer with uncovered server RTTs succeeded")
	}
	if err := sess.UpdateServerDelays("nope", map[string]float64{"c000": 5}); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("UpdateServerDelays(unknown server) = %v, want ErrUnknownServer", err)
	}
	if err := sess.UpdateServerDelays("s00", map[string]float64{"ghost": 5}); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("UpdateServerDelays(unknown client) = %v, want ErrUnknownClient", err)
	}
	// Draining every server but one leaves the last one undrainable.
	for i := 1; i < f.baseServers; i++ {
		if err := sess.DrainServer(f.serverID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.DrainServer("s00"); !errors.Is(err, ErrLastServer) {
		t.Fatalf("DrainServer(last available) = %v, want ErrLastServer", err)
	}
}

// TestJoinBatchAtomic proves batch validation happens before any
// admission: one bad entry rejects the whole batch.
func TestJoinBatchAtomic(t *testing.T) {
	f := defaultTopoFixture()
	sess, err := f.buildBase(t).Open("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	before := sess.NumClients()
	joins := []ClientJoin{
		{ID: "ok1", Spec: f.clientSpec(100, f.baseServers, f.baseZones)},
		{ID: "bad", Spec: ClientSpec{Zone: "atlantis", BandwidthMbps: 1, RTTs: map[string]float64{}}},
	}
	if err := sess.JoinBatch(joins); !errors.Is(err, ErrUnknownZone) {
		t.Fatalf("JoinBatch with bad zone = %v, want ErrUnknownZone", err)
	}
	if sess.NumClients() != before {
		t.Fatalf("failed batch admitted clients: %d → %d", before, sess.NumClients())
	}
	if _, err := sess.Client("ok1"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("client from failed batch resolves: %v", err)
	}
	// A clean batch lands all of them as one event.
	joins = joins[:1]
	for x := 101; x < 105; x++ {
		joins = append(joins, ClientJoin{ID: f.clientID(x), Spec: f.clientSpec(x, f.baseServers, f.baseZones)})
	}
	if err := sess.JoinBatch(joins); err != nil {
		t.Fatal(err)
	}
	if got := sess.NumClients(); got != before+5 {
		t.Fatalf("population after batch = %d, want %d", got, before+5)
	}
	if got := sess.Stats().Joins; got != 5 {
		t.Fatalf("Stats().Joins = %d, want 5", got)
	}
}

// TestUnmeasuredServerBecomesAttractive adds a server without client
// measurements (every column entry starts at UnmeasuredRTTMs), then
// streams a column of real measurements in and watches clients adopt it.
func TestUnmeasuredServerBecomesAttractive(t *testing.T) {
	f := defaultTopoFixture()
	sess, err := f.buildBase(t).Open("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	rtts := make(map[string]float64, f.baseServers)
	for l := 0; l < f.baseServers; l++ {
		rtts[f.serverID(l)] = 20
	}
	if err := sess.AddServer("fresh", ServerSpec{CapacityMbps: 1000, RTTs: rtts}); err != nil {
		t.Fatal(err)
	}
	// Unmeasured: nothing should sit on the fresh server.
	for _, id := range sess.ClientIDs() {
		cl, err := sess.Client(id)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Contact == "fresh" {
			t.Fatalf("client %s adopted an unmeasured server", id)
		}
	}
	// Measure: every client is 1 ms away; after a re-solve the fresh
	// server must host zones (it dominates every delay row).
	col := make(map[string]float64, sess.NumClients())
	for _, id := range sess.ClientIDs() {
		col[id] = 1
	}
	if err := sess.UpdateServerDelays("fresh", col); err != nil {
		t.Fatal(err)
	}
	if err := sess.Resolve(); err != nil {
		t.Fatal(err)
	}
	hosted := 0
	for _, st := range sess.Servers() {
		if st.ID == "fresh" {
			hosted = st.Zones
		}
	}
	if hosted == 0 {
		t.Fatal("measured 1ms server hosts no zones after re-solve")
	}
}

// TestClusterCounts checks the builder's and the session's counts of
// servers, zones and clients.
func TestClusterCounts(t *testing.T) {
	f := defaultTopoFixture()
	c := f.buildBase(t)
	if c.NumServers() != f.baseServers || c.NumZones() != f.baseZones || c.NumClients() != f.baseClients {
		t.Fatalf("cluster counts %d/%d/%d, want %d/%d/%d", c.NumServers(), c.NumZones(), c.NumClients(),
			f.baseServers, f.baseZones, f.baseClients)
	}
	sess, err := c.Open("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	f.growSession(t, sess)
	if sess.NumServers() != f.baseServers+1 || sess.NumZones() != f.baseZones+1 || len(sess.ClientIDs()) != f.baseClients+f.lateClients {
		t.Fatalf("grown session counts %d/%d/%d", sess.NumServers(), sess.NumZones(), len(sess.ClientIDs()))
	}
}

// TestSessionAddSpareServerArrivesCordoned checks the warm-spare verb: the
// spare is registered but draining, hosts no zones and serves no clients
// however close it is, and stays out of Utilization's denominator until
// UncordonServer admits it.
func TestSessionAddSpareServerArrivesCordoned(t *testing.T) {
	f := defaultTopoFixture()
	sess, err := f.buildBase(t).Open("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	// liveUtil recomputes Utilization from the inventory.
	liveUtil := func() float64 {
		var load, capacity float64
		for _, s := range sess.Servers() {
			load += s.LoadMbps
			if !s.Draining {
				capacity += s.CapacityMbps
			}
		}
		return load / capacity
	}
	if u := sess.Utilization(); math.Abs(u-liveUtil()) > 1e-9 {
		t.Fatalf("Utilization %v, inventory gives %v", u, liveUtil())
	}
	before := sess.Utilization()
	spare := f.serverID(f.baseServers)
	rtts := make(map[string]float64, f.baseServers)
	for l := 0; l < f.baseServers; l++ {
		rtts[f.serverID(l)] = synthServerRTT(f.baseServers, l)
	}
	near := make(map[string]float64, f.baseClients)
	for x := 0; x < f.baseClients; x++ {
		near[f.clientID(x)] = 1
	}
	spec := ServerSpec{CapacityMbps: 120, RTTs: rtts, ClientRTTs: near}
	if err := sess.AddSpareServer(spare, spec); err != nil {
		t.Fatal(err)
	}
	if err := sess.AddSpareServer(spare, spec); err == nil {
		t.Fatal("second AddSpareServer under the same ID accepted")
	}
	if sess.NumServers() != f.baseServers+1 {
		t.Fatalf("%d servers after the spare, want %d", sess.NumServers(), f.baseServers+1)
	}
	row := sess.Servers()[f.baseServers]
	if row.ID != spare || !row.Draining || row.Zones != 0 || row.LoadMbps != 0 || row.CapacityMbps != 120 {
		t.Fatalf("spare row %+v", row)
	}
	for _, id := range sess.ClientIDs() {
		cl, err := sess.Client(id)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Contact == spare || cl.Target == spare {
			t.Fatalf("client %s uses the cordoned spare: %+v", id, cl)
		}
	}
	if u := sess.Utilization(); math.Abs(u-before) > 1e-9 {
		t.Fatalf("Utilization moved %v → %v on a spare's registration", before, u)
	}
	if err := sess.UncordonServer(spare); err != nil {
		t.Fatal(err)
	}
	if sess.Servers()[f.baseServers].Draining {
		t.Fatal("spare still draining after UncordonServer")
	}
	if u := sess.Utilization(); math.Abs(u-liveUtil()) > 1e-9 || u >= before {
		t.Fatalf("Utilization %v after admission (inventory %v, before %v)", u, liveUtil(), before)
	}
}
