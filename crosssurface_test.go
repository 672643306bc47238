package dvecap

// Both front ends drive ONE state machine (repair.Machine, DESIGN.md §11),
// so a director's data directory is a session's too. These tests lean on
// that: a ClusterSession is opened on a copy of a director's directory, and
// the two are then driven side by side.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/director"
	"dvecap/internal/repair"
	"dvecap/internal/topology"
	"dvecap/internal/wal"
	"dvecap/internal/xrand"
)

// crossOrigin builds a small durable director — four servers, eight zones,
// ten clients, one full solve — checkpoints it, and returns it with its
// config. The checkpoint is the common origin of every machine under test.
func crossOrigin(t *testing.T) (*director.Director, director.Config) {
	t.Helper()
	g, err := topology.Waxman(xrand.New(5), topology.DefaultWaxman(40))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := director.Config{
		ServerNodes:   []int{0, 10, 20, 30},
		ServerCaps:    []float64{50, 65, 80, 45},
		Zones:         8,
		Delays:        dm,
		DelayBoundMs:  250,
		FrameRate:     25,
		MessageBytes:  100,
		Seed:          1,
		DriftPQoS:     0.05,
		TrafficWeight: 0.5,
		DataDir:       t.TempDir(),
	}
	d, err := director.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(21)
	for i := 0; i < 10; i++ {
		if _, err := d.Join("", rng.IntN(40), rng.IntN(8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Reassign(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return d, cfg
}

// cloneDir copies a flat data directory.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// journalTail returns the payloads journaled after the newest snapshot.
func journalTail(t *testing.T, dir string) [][]byte {
	t.Helper()
	lsn, _, err := wal.LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	if _, err := wal.Replay(dir, lsn, func(_ uint64, p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCrossSurfaceEquivalence feeds the same resolved stream — joins with
// explicit rows and bandwidths, moves, delay rows, bandwidth updates,
// drain/uncordon, add/remove server, add/retire zone, adjacency, a resolve
// and a rejected event — to a director-side machine (as events) and to a
// ClusterSession (as verbs): the journals must hold the same bytes and the
// planners the same sidecar. It is the row a fuzzer over both surfaces drives.
func TestCrossSurfaceEquivalence(t *testing.T) {
	d, cfg := crossOrigin(t)
	dirM, dirS := cloneDir(t, cfg.DataDir), cloneDir(t, cfg.DataDir)
	_ = d // abandoned: the copies carry on

	// The director's side, minus the director: its machine.
	snap, err := repair.LoadSnapshot(dirM)
	if err != nil {
		t.Fatal(err)
	}
	algo, _ := core.ByName("GreZ-GreC")
	m, err := repair.RestoreMachine(snap, repair.Config{Algo: algo, Opt: core.Options{Overflow: core.SpillLargestResidual}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(repair.JournalConfig{Dir: dirM, ErrClosed: director.ErrDirectorClosed}, snap.LSN); err != nil {
		t.Fatal(err)
	}
	// The session's side: the public surface on the same directory.
	s, err := NewCluster(1).Open("GreZ-GreC", WithDurability(dirS))
	if err != nil {
		t.Fatal(err)
	}

	rng := xrand.New(3)
	row := func(m int) []float64 { return durRow(rng, m) }
	peers := func(ss []float64, ids ...string) map[string]float64 {
		out := map[string]float64{}
		for i, id := range ids {
			out[id] = ss[i]
		}
		return out
	}
	r1, r2, r3, r4, r5 := row(4), row(4), row(4), row(4), row(5)
	ss := []float64{22, 35, 18, 41}
	steps := []struct {
		event *repair.Event
		verb  func() error
	}{
		{&repair.Event{Op: repair.OpJoin, ID: "n0", Zone: "z1", RT: 0.3, Row: r1},
			func() error { return s.Join("n0", ClientSpec{Zone: "z1", BandwidthMbps: 0.3, RTTRow: r1}) }},
		{&repair.Event{Op: repair.OpJoinBatch, IDs: []string{"n1", "n2"}, Zones: []string{"z2", "z1"}, RTs: []float64{0.2, 0.4}, Rows: [][]float64{r2, r3}},
			func() error {
				return s.JoinBatch([]ClientJoin{
					{ID: "n1", Spec: ClientSpec{Zone: "z2", BandwidthMbps: 0.2, RTTRow: r2}},
					{ID: "n2", Spec: ClientSpec{Zone: "z1", BandwidthMbps: 0.4, RTTRow: r3}},
				})
			}},
		{&repair.Event{Op: repair.OpMove, ID: "n0", Zone: "z5"}, func() error { return s.Move("n0", "z5") }},
		{&repair.Event{Op: repair.OpMoveBatch, IDs: []string{"n1", "c000001"}, Zones: []string{"z0", "z7"}},
			func() error { return s.MoveBatch([]string{"n1", "c000001"}, []string{"z0", "z7"}) }},
		{&repair.Event{Op: repair.OpDelayRow, ID: "c000002", Row: r4}, func() error { return s.UpdateDelayRow("c000002", r4) }},
		{&repair.Event{Op: repair.OpSetBandwidth, ID: "n2", RT: 0.55}, func() error { return s.SetBandwidth("n2", 0.55) }},
		{&repair.Event{Op: repair.OpSetZoneBW, Zone: "z1", RT: 0.25}, func() error { return s.SetZoneBandwidth("z1", 0.25) }},
		{&repair.Event{Op: repair.OpDrainServer, Server: "s1"}, func() error { return s.DrainServer("s1") }},
		{&repair.Event{Op: repair.OpUncordon, Server: "s1"}, func() error { return s.UncordonServer("s1") }},
		{&repair.Event{Op: repair.OpAddServer, Server: "sx", Capacity: 70, Row: ss, ClientRTTs: map[string]float64{"n0": 33, "c000003": 120.5}},
			func() error {
				return s.AddServer("sx", ServerSpec{CapacityMbps: 70, RTTs: peers(ss, "s0", "s1", "s2", "s3"), ClientRTTs: map[string]float64{"n0": 33, "c000003": 120.5}})
			}},
		{&repair.Event{Op: repair.OpServerDelays, Server: "sx", RTTs: map[string]float64{"n1": 40, "n2": 15}},
			func() error { return s.UpdateServerDelays("sx", map[string]float64{"n1": 40, "n2": 15}) }},
		{&repair.Event{Op: repair.OpJoin, ID: "n3", Zone: "z3", RT: 0.35, Row: r5},
			func() error { return s.Join("n3", ClientSpec{Zone: "z3", BandwidthMbps: 0.35, RTTRow: r5}) }},
		{&repair.Event{Op: repair.OpAddZone, Zone: "zx", Host: "s2"}, func() error { return s.AddZone("zx", ZoneSpec{Host: "s2"}) }},
		{&repair.Event{Op: repair.OpSetAdjacency, Zone: "zx", Zone2: "z0", Weight: 1.5}, func() error { return s.SetZoneAdjacency("zx", "z0", 1.5) }},
		{&repair.Event{Op: repair.OpAddAdjacency, Zone: "z1", Zone2: "z5", Weight: 0.75}, func() error { return s.AddAdjacencyWeight("z1", "z5", 0.75) }},
		{&repair.Event{Op: repair.OpResolve}, s.Resolve},
		{&repair.Event{Op: repair.OpSetAdjacency, Zone: "zx", Zone2: "z0"}, func() error { return s.SetZoneAdjacency("zx", "z0", 0) }},
		{&repair.Event{Op: repair.OpRetireZone, Zone: "zx"}, func() error { return s.RetireZone("zx") }},
		{&repair.Event{Op: repair.OpDrainServer, Server: "s0"}, func() error { return s.DrainServer("s0") }},
		{&repair.Event{Op: repair.OpRemoveServer, Server: "s0"}, func() error { return s.RemoveServer("s0") }},
		{&repair.Event{Op: repair.OpLeave, ID: "n2"}, func() error { return s.Leave("n2") }},
		{&repair.Event{Op: repair.OpLeaveBatch, IDs: []string{"c000004", "n0"}}, func() error { return s.LeaveBatch([]string{"c000004", "n0"}) }},
	}
	for x, st := range steps {
		if err := st.verb(); err != nil {
			t.Fatalf("step %d (%s) on the session: %v", x, st.event.Op, err)
		}
		if err := machineCommit(m, st.event); err != nil {
			t.Fatalf("step %d (%s) on the machine: %v", x, st.event.Op, err)
		}
	}
	// Refused before the journal, and journaled, then rejected — by both,
	// with the same sentinel.
	ghost := &repair.Event{Op: repair.OpLeave, ID: "ghost"}
	if errS, errM := s.Leave("ghost"), machineCommit(m, ghost); !errors.Is(errS, ErrUnknownClient) || !errors.Is(errM, ErrUnknownClient) {
		t.Fatalf("leave of an unknown client: session %v, machine %v", errS, errM)
	}
	busy := &repair.Event{Op: repair.OpRemoveServer, Server: "s2"}
	if errS, errM := s.RemoveServer("s2"), machineCommit(m, busy); !errors.Is(errS, ErrServerNotEmpty) || !errors.Is(errM, ErrServerNotEmpty) {
		t.Fatalf("removal of a busy server: session %v, machine %v", errS, errM)
	}

	tailM, tailS := journalTail(t, dirM), journalTail(t, dirS)
	if len(tailM) != len(tailS) || len(tailM) < len(steps)+1 {
		t.Fatalf("journals hold %d and %d records for %d events", len(tailM), len(tailS), len(steps)+1)
	}
	for x := range tailM {
		if !bytes.Equal(tailM[x], tailS[x]) {
			t.Fatalf("journal record %d differs:\nmachine %s\nsession %s", x, tailM[x], tailS[x])
		}
	}
	stateM, err := m.Render(0)
	if err != nil {
		t.Fatal(err)
	}
	stateS, err := s.m.Render(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateM, stateS) {
		t.Fatalf("states diverged:\nmachine %s\nsession %s", stateM, stateS)
	}
}

// TestMalformedCallsRefusedEverywhere sends one malformed call per verb
// through every surface that has the verb — a durable session, an in-memory
// session, a director through its Go API and through HTTP — and holds each
// to the one admission rule (repair.Machine.Check): the call fails, with the
// sentinel where one applies and the HTTP status the route has always
// answered, and nothing is journaled or changed. The director names a zone
// given in a request body as bad input (400), not as a missing resource, so
// it carries no sentinel there.
func TestMalformedCallsRefusedEverywhere(t *testing.T) {
	d, cfg := crossOrigin(t)
	durable, err := NewCluster(1).Open("GreZ-GreC", WithDurability(cloneDir(t, cfg.DataDir)))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := repair.LoadSnapshot(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := clusterFromJSON(&snap.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := c.Open("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	h := director.Handler(d)

	nan, inf := math.NaN(), math.Inf(1)
	row := func(entries ...float64) []float64 { return entries }
	peers := map[string]float64{"s0": 10, "s1": 20, "s2": 30, "s3": 40}
	z := director.ID
	cases := []struct {
		name    string
		session func(s *ClusterSession) error
		dir     func() error // nil: the director has no such verb
		method  string       // "": no HTTP route
		path    string
		body    string
		is      error // the sessions' sentinel; nil: none
		dirIs   error // the director's
		status  int
	}{
		{name: "bandwidth 0", session: func(s *ClusterSession) error { return s.SetBandwidth("c000001", 0) }},
		{name: "bandwidth NaN", session: func(s *ClusterSession) error { return s.SetBandwidth("c000001", nan) }},
		{name: "zone bandwidth +Inf", session: func(s *ClusterSession) error { return s.SetZoneBandwidth("z1", inf) }},
		{name: "join bandwidth 0", session: func(s *ClusterSession) error {
			return s.Join("nx", ClientSpec{Zone: "z1", BandwidthMbps: 0, RTTRow: row(1, 2, 3, 4)})
		}},
		{name: "+Inf RTT in a row",
			session: func(s *ClusterSession) error { return s.UpdateDelayRow("c000001", row(1, 2, inf, 4)) },
			dir:     func() error { _, err := d.UpdateDelays("c000001", row(1, 2, inf, 4)); return err },
			method:  http.MethodPost, path: "/v1/clients/c000001/delays", body: `{"rtts_ms":[1,2,1e999,4]}`, status: http.StatusBadRequest},
		{name: "+Inf RTT in a join row", session: func(s *ClusterSession) error {
			return s.Join("nx", ClientSpec{Zone: "z1", BandwidthMbps: 1, RTTRow: row(1, 2, inf, 4)})
		}},
		{name: "+Inf RTT in a map", session: func(s *ClusterSession) error {
			return s.UpdateDelays("c000001", map[string]float64{"s2": inf})
		}},
		{name: "+Inf RTT in a server column", session: func(s *ClusterSession) error {
			return s.UpdateServerDelays("s1", map[string]float64{"c000001": inf})
		}},
		{name: "NaN RTT from a client to an added server", session: func(s *ClusterSession) error {
			return s.AddServer("sx", ServerSpec{CapacityMbps: 50, RTTs: peers, ClientRTTs: map[string]float64{"c000001": nan}})
		}},
		{name: "short delay row",
			session: func(s *ClusterSession) error { return s.UpdateDelayRow("c000001", row(1, 2, 3)) },
			dir:     func() error { _, err := d.UpdateDelays("c000001", row(1, 2, 3)); return err },
			method:  http.MethodPost, path: "/v1/clients/c000001/delays", body: `{"rtts_ms":[1,2,3]}`, status: http.StatusBadRequest},
		{name: "self-edge",
			session: func(s *ClusterSession) error { return s.SetZoneAdjacency("z1", "z1", 2) },
			dir:     func() error { _, err := d.SetAdjacency(z("z1"), director.Index(1), 2); return err },
			method:  http.MethodPost, path: "/v1/adjacency", body: `{"zone1":"z1","zone2":1,"weight_mbps":2}`, status: http.StatusBadRequest},
		{name: "add-weight 0",
			session: func(s *ClusterSession) error { return s.AddAdjacencyWeight("z1", "z2", 0) },
			dir:     func() error { _, err := d.AddAdjacencyWeight(z("z1"), z("z2"), 0); return err },
			method:  http.MethodPost, path: "/v1/adjacency/add", body: `{"zone1":"z1","zone2":"z2","delta_mbps":0}`, status: http.StatusBadRequest},
		{name: "unknown zone on Move",
			session: func(s *ClusterSession) error { return s.Move("c000001", "zq") },
			dir:     func() error { _, err := d.MoveRef("c000001", z("zq")); return err },
			method:  http.MethodPost, path: "/v1/clients/c000001/move", body: `{"zone":"zq"}`,
			is: ErrUnknownZone, status: http.StatusBadRequest},
		{name: "unknown zone on MoveBatch",
			session: func(s *ClusterSession) error { return s.MoveBatch([]string{"c000001"}, []string{"zq"}) },
			dir:     func() error { _, err := d.MoveBatch([]string{"c000001"}, []director.Ref{z("zq")}); return err },
			is:      ErrUnknownZone},
		{name: "mismatched batch lengths",
			session: func(s *ClusterSession) error { return s.MoveBatch([]string{"c000001", "c000002"}, []string{"z1"}) },
			dir: func() error {
				_, err := d.MoveBatch([]string{"c000001", "c000002"}, []director.Ref{z("z1")})
				return err
			}},
		{name: "duplicate ID in a batch",
			session: func(s *ClusterSession) error { return s.LeaveBatch([]string{"c000001", "c000001"}) },
			dir:     func() error { return d.LeaveBatch([]string{"c000001", "c000001"}) },
			is:      ErrDuplicateClient, dirIs: ErrDuplicateClient},
		{name: "duplicate ID in a join batch",
			session: func(s *ClusterSession) error {
				spec := ClientSpec{Zone: "z1", BandwidthMbps: 1, RTTRow: row(1, 2, 3, 4)}
				return s.JoinBatch([]ClientJoin{{ID: "nx", Spec: spec}, {ID: "nx", Spec: spec}})
			},
			dir: func() error {
				_, err := d.JoinBatch([]director.ClientJoin{{ID: "nx", Node: 3, Zone: z("z1")}, {ID: "nx", Node: 4, Zone: z("z1")}})
				return err
			},
			is: ErrDuplicateClient, dirIs: ErrDuplicateClient},
		{name: "empty server ID", session: func(s *ClusterSession) error {
			return s.AddServer("", ServerSpec{CapacityMbps: 50, RTTs: peers})
		}},
		{name: "capacity 0",
			session: func(s *ClusterSession) error { return s.AddServer("sx", ServerSpec{CapacityMbps: 0, RTTs: peers}) },
			dir:     func() error { _, err := d.AddServer(5, 0); return err },
			method:  http.MethodPost, path: "/v1/servers", body: `{"node":5,"capacity_mbps":0}`, status: http.StatusBadRequest},
	}

	render := func(m *repair.Machine) []byte {
		raw, err := m.Render(0)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	dirState := func() []byte {
		raw, err := d.DurableState()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	refused := func(t *testing.T, surface string, err, is error) {
		t.Helper()
		if err == nil || (is != nil && !errors.Is(err, is)) {
			t.Errorf("%s: err = %v, want a refusal (sentinel %v)", surface, err, is)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lsn, before := durable.m.NextLSN(), render(durable.m)
			refused(t, "durable session", tc.session(durable), tc.is)
			if durable.m.NextLSN() != lsn || !bytes.Equal(render(durable.m), before) {
				t.Errorf("durable session: refused call journaled or changed state")
			}
			before = render(inMemory.m)
			refused(t, "in-memory session", tc.session(inMemory), tc.is)
			if !bytes.Equal(render(inMemory.m), before) {
				t.Errorf("in-memory session: refused call changed state")
			}
			records, before := len(journalTail(t, cfg.DataDir)), dirState()
			if tc.dir != nil {
				refused(t, "director", tc.dir(), tc.dirIs)
			}
			if tc.method != "" {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
				if rec.Code != tc.status {
					t.Errorf("HTTP %s %s: status %d, want %d (%s)", tc.method, tc.path, rec.Code, tc.status, rec.Body)
				}
			}
			if len(journalTail(t, cfg.DataDir)) != records || !bytes.Equal(dirState(), before) {
				t.Errorf("director: refused call journaled or changed state")
			}
		})
	}
}

// machineCommit is the live path of a bare machine, refusing what a front
// end refuses before journaling.
func machineCommit(m *repair.Machine, e *repair.Event) error {
	if err := m.Check(e); err != nil {
		return err
	}
	if err := m.Append(e); err != nil {
		return err
	}
	if err := m.Apply(e); err != nil {
		return err
	}
	_, err := m.Applied()
	return err
}

// TestDirectorMoveBatchMatchesSession: the director's MoveBatch is ONE
// journal record, and what it does equals the same moves through
// ClusterSession.MoveBatch on the same state — once the session has been told
// the bandwidths the director's population model derived (the record's
// refresh list and per-mover bandwidths).
func TestDirectorMoveBatchMatchesSession(t *testing.T) {
	d, cfg := crossOrigin(t)
	s, err := NewCluster(1).Open("GreZ-GreC", WithDurability(cloneDir(t, cfg.DataDir)))
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"c000001", "c000004", "c000007", "c000002"}
	infos, err := d.MoveBatch(ids, []director.Ref{director.Index(3), director.ID("z3"), director.Index(0), director.ID("z6")})
	if err != nil {
		t.Fatal(err)
	}
	tail := journalTail(t, cfg.DataDir)
	if len(tail) != 1 {
		t.Fatalf("MoveBatch journaled %d records, want 1", len(tail))
	}
	e, err := repair.DecodeEvent(tail[0])
	if err != nil {
		t.Fatal(err)
	}
	if e.Op != repair.OpMoveBatch || len(e.IDs) != len(ids) || len(e.RTs) != len(ids) || len(e.Refresh) == 0 {
		t.Fatalf("journaled %s", tail[0])
	}
	for _, r := range e.Refresh {
		if err := s.SetZoneBandwidth(r.Zone, r.RT); err != nil {
			t.Fatal(err)
		}
	}
	for x, id := range e.IDs {
		if err := s.SetBandwidth(id, e.RTs[x]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MoveBatch(e.IDs, e.Zones); err != nil {
		t.Fatal(err)
	}
	want, err := d.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.m.Render(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("session and director diverged:\nsession  %s\ndirector %s", got, want)
	}
	for x, info := range infos {
		c, err := s.Client(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.ID != ids[x] || c.Zone != info.ZoneID || c.Contact != info.ContactID || c.Target != info.TargetID || c.DelayMs != info.DelayMs {
			t.Fatalf("client %s: director %+v, session %+v", ids[x], info, c)
		}
	}
	// The director's other batch verbs are one record each, too.
	if _, err := d.JoinBatch([]director.ClientJoin{{ID: "j0", Node: 4, Zone: director.ID("z2")}, {ID: "j1", Node: 9, Zone: director.Index(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := d.LeaveBatch([]string{"j0", "c000001"}); err != nil {
		t.Fatal(err)
	}
	if err := d.LeaveBatch([]string{"j1", "j1"}); !errors.Is(err, director.ErrDuplicateClient) {
		t.Fatalf("repeated ID in a batch: %v", err)
	}
	var ops []string
	for _, p := range journalTail(t, cfg.DataDir) {
		var rec struct {
			Op string `json:"op"`
		}
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, rec.Op)
	}
	if want := []string{"move_batch", "join_batch", "leave_batch"}; len(ops) != 3 || ops[0] != want[0] || ops[1] != want[1] || ops[2] != want[2] {
		t.Fatalf("journal tail %v, want %v", ops, want)
	}
	if st := d.Stats(); st.Clients != 10 {
		t.Fatalf("%d clients after +2 −2, want 10", st.Clients)
	}
}
