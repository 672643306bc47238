package director

// Director-side autoscaling tests: the reconciler drives the journaled
// live-topology verbs (uncordon a warm spare, drain, retire the tail),
// the HTTP surface inspects and overrides the policy, and warm-spare
// registrations recover bit-identically through the write-ahead log.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dvecap/internal/autoscale"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

func TestEnableAutoscale(t *testing.T) {
	d := testDirector(t)
	if st := d.AutoscaleStatus(); st.Enabled {
		t.Fatal("autoscale reported enabled before EnableAutoscale")
	}
	if d.Autoscale() != nil {
		t.Fatal("Autoscale() non-nil before enable")
	}
	if err := d.EnableAutoscale(autoscale.Config{UtilLow: 0.9, UtilHigh: 0.5}); err == nil {
		t.Fatal("contradictory config accepted")
	}
	if err := d.EnableAutoscale(autoscale.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableAutoscale(autoscale.Config{}); err == nil {
		t.Fatal("double enable accepted")
	}
	st := d.AutoscaleStatus()
	if !st.Enabled || st.Paused || st.Ticks != 0 || len(st.Decisions) != 0 {
		t.Fatalf("fresh status = %+v", st)
	}
	if st.Config.UtilHigh != 0.85 || st.Config.LowWindowTicks != 6 {
		t.Fatalf("status config not defaulted: %+v", st.Config)
	}
}

// TestAutoscaleSpareCapacityExcluded pins the warm-pool contract at the
// director layer: a spare arrives cordoned, hosts nothing, and its
// capacity stays out of the utilization denominator until admitted.
func TestAutoscaleSpareCapacityExcluded(t *testing.T) {
	d := testDirector(t)
	for i := 0; i < 40; i++ {
		if _, err := d.Join("", (i*7)%40, i%8); err != nil {
			t.Fatal(err)
		}
	}
	before := d.planner().Utilization()
	info, err := d.AddSpareServer(35, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Draining || info.Zones != 0 || info.Server != 4 {
		t.Fatalf("spare info = %+v, want draining, empty, index 4", info)
	}
	if after := d.planner().Utilization(); after != before {
		t.Fatalf("utilization moved %v -> %v on spare registration", before, after)
	}
	if _, err := d.AddSpareServer(99, 50); err == nil {
		t.Fatal("spare at node outside topology accepted")
	}
}

// TestAutoscaleScaleUpAdmitsSpare loads the fleet past the high
// watermark and requires one reconcile cycle to uncordon the warm spare
// — and the flow-back to land load on it.
func TestAutoscaleScaleUpAdmitsSpare(t *testing.T) {
	d := testDirector(t)
	if _, err := d.AddSpareServer(35, 50); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableAutoscale(autoscale.Config{
		UtilHigh: 0.5, UtilLow: 0.1,
		HighWindowTicks: 1, LowWindowTicks: 1,
		UpCooldownTicks: -1, DownCooldownTicks: -1,
	}); err != nil {
		t.Fatal(err)
	}
	// 25 clients in each of 8 zones: the quadratic per-zone demand puts
	// utilization over 0.5 on the 200 Mbps active fleet.
	for i := 0; i < 200; i++ {
		if _, err := d.Join(fmt.Sprintf("c%03d", i), (i*7)%40, i%8); err != nil {
			t.Fatal(err)
		}
	}
	rec := d.Autoscale()
	dec, err := rec.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Action != autoscale.ActionScaleUp || dec.Target != "s4" {
		t.Fatalf("decision = %+v, want scale_up of s4 (util %v)", dec, dec.Utilization)
	}
	srv := d.Servers()[4]
	if srv.Draining {
		t.Fatal("s4 still draining after scale-up")
	}
	// The admitted capacity joins the utilization denominator immediately.
	if after := d.planner().Utilization(); after >= dec.Utilization {
		t.Fatalf("utilization %v -> %v across the admit, want a drop", dec.Utilization, after)
	}
	st := d.AutoscaleStatus()
	if st.Ticks != 1 || len(st.Decisions) != 1 || st.Decisions[0] != dec {
		t.Fatalf("status after scale-up = %+v", st)
	}
}

// TestAutoscaleDrainAndRetire walks a full scale-down: sustained low
// water drains the least-loaded server, the retire grace elapses, and —
// because the victim is the fleet's tail index — the reconciler removes
// it from the topology entirely.
func TestAutoscaleDrainAndRetire(t *testing.T) {
	g, err := topology.Waxman(xrand.New(5), topology.DefaultWaxman(40))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		ServerNodes:  []int{0, 10},
		ServerCaps:   []float64{50, 50},
		Zones:        2,
		Delays:       dm,
		DelayBoundMs: 250,
		FrameRate:    25,
		MessageBytes: 100,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnableAutoscale(autoscale.Config{
		UtilHigh: 0.9, UtilLow: 0.5,
		HighWindowTicks: 1, LowWindowTicks: 1,
		UpCooldownTicks: -1, DownCooldownTicks: -1,
		RetireAfterTicks: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// A handful of clients: utilization stays under the low watermark, and
	// with everything light the least-loaded victim is the empty tail.
	for i := 0; i < 4; i++ {
		if _, err := d.Join("", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	rec := d.Autoscale()

	dec, err := rec.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Action != autoscale.ActionScaleDown {
		t.Fatalf("tick 1 = %+v, want scale_down", dec)
	}
	victim := dec.Target
	if !d.Servers()[1].Draining && !d.Servers()[0].Draining {
		t.Fatal("no server draining after scale-down")
	}

	// Grace = 1 tick: the next cycle ages the drain to 1 (not yet), the
	// one after crosses it. Low water persists but MinActive=1 holds
	// further drains.
	if dec, err = rec.Tick(); err != nil || dec.Action != autoscale.ActionNone {
		t.Fatalf("tick 2 = %+v, %v, want hold", dec, err)
	}
	if dec.Reason != autoscale.ReasonAtMin {
		t.Fatalf("tick 2 hold reason %q, want %q", dec.Reason, autoscale.ReasonAtMin)
	}
	if _, err = rec.Tick(); err != nil {
		t.Fatal(err)
	}

	// Targets are stable IDs, so the victim is retired wherever it sat.
	srv := d.Servers()
	if len(srv) != 1 || srv[0].ID == victim {
		t.Fatalf("servers after retire = %+v, want the one that is not %s", srv, victim)
	}
	log := rec.Decisions()
	last := log[len(log)-1]
	if last.Action != autoscale.ActionRetire || last.Target != victim || last.Reason != autoscale.ReasonRetireAge {
		t.Fatalf("last decision = %+v, want retire of %s", last, victim)
	}
}

// TestAutoscaleOperatorDrainNeverRetired pins the ownership rule: the
// retire grace only tracks servers the reconciler's own scale-downs
// drained. A spare registered by an operator sits in the pool forever.
func TestAutoscaleOperatorDrainNeverRetired(t *testing.T) {
	d := testDirector(t)
	if _, err := d.AddSpareServer(35, 50); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableAutoscale(autoscale.Config{
		UtilHigh: 0.9, UtilLow: 0.5,
		HighWindowTicks: 1, LowWindowTicks: 1,
		DownCooldownTicks: -1,
		MinActive:         4,
		RetireAfterTicks:  1,
	}); err != nil {
		t.Fatal(err)
	}
	rec := d.Autoscale()
	for i := 0; i < 5; i++ {
		dec, err := rec.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if dec.Action != autoscale.ActionNone {
			t.Fatalf("tick %d fired %+v with the fleet at MinActive", i, dec)
		}
	}
	if n := len(d.Servers()); n != 5 {
		t.Fatalf("%d servers, want 5 — the operator's spare must stay", n)
	}
	if !d.Servers()[4].Draining {
		t.Fatal("operator spare no longer draining")
	}
}

func autoscaleHTTPGet(t *testing.T, srv *httptest.Server) AutoscaleStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/autoscale")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/autoscale: %d", resp.StatusCode)
	}
	var st AutoscaleStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAutoscaleHTTP(t *testing.T) {
	d := testDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	if st := autoscaleHTTPGet(t, srv); st.Enabled {
		t.Fatal("enabled before EnableAutoscale")
	}
	// Every POST route conflicts while disabled.
	for _, route := range []string{"config", "pause", "resume", "tick"} {
		resp, err := http.Post(srv.URL+"/v1/autoscale/"+route, "application/json", bytes.NewBufferString("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("POST %s while disabled: %d, want 409", route, resp.StatusCode)
		}
	}

	if err := d.EnableAutoscale(autoscale.Config{}); err != nil {
		t.Fatal(err)
	}

	// Manual tick: one reconcile cycle, decision returned.
	resp, err := http.Post(srv.URL+"/v1/autoscale/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dec autoscale.Decision
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dec.Tick != 0 {
		t.Fatalf("tick: %d %+v", resp.StatusCode, dec)
	}
	if st := autoscaleHTTPGet(t, srv); st.Ticks != 1 {
		t.Fatalf("ticks = %d after one manual tick", st.Ticks)
	}

	// Config override round-trips and resets hysteresis under new
	// watermarks.
	body, _ := json.Marshal(autoscale.Config{UtilHigh: 0.7, UtilLow: 0.3, HighWindowTicks: 2})
	resp, err = http.Post(srv.URL+"/v1/autoscale/config", "application/json", bytes.NewBuffer(body))
	if err != nil {
		t.Fatal(err)
	}
	var st AutoscaleStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Config.UtilHigh != 0.7 || st.Config.HighWindowTicks != 2 {
		t.Fatalf("config override: %d %+v", resp.StatusCode, st.Config)
	}

	// Contradictory and malformed configs are rejected.
	for _, bad := range []string{`{"UtilHigh":0.2,"UtilLow":0.8}`, `{not json`} {
		resp, err := http.Post(srv.URL+"/v1/autoscale/config", "application/json", bytes.NewBufferString(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad config %q: %d, want 400", bad, resp.StatusCode)
		}
	}

	// Pause / resume flip the flag through the status view.
	resp, err = http.Post(srv.URL+"/v1/autoscale/pause", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := autoscaleHTTPGet(t, srv); !st.Paused {
		t.Fatal("not paused after POST /v1/autoscale/pause")
	}
	resp, err = http.Post(srv.URL+"/v1/autoscale/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := autoscaleHTTPGet(t, srv); st.Paused {
		t.Fatal("still paused after POST /v1/autoscale/resume")
	}

	// Method and route errors.
	resp, err = http.Post(srv.URL+"/v1/autoscale", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/autoscale: %d, want 405", resp.StatusCode)
	}
	getTick, err := http.Get(srv.URL + "/v1/autoscale/tick")
	if err != nil {
		t.Fatal(err)
	}
	getTick.Body.Close()
	if getTick.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/autoscale/tick: %d, want 405", getTick.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/autoscale/bogus", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/autoscale/bogus: %d, want 404", resp.StatusCode)
	}
}

// TestSpareServerHTTP registers a warm spare through the REST surface.
func TestSpareServerHTTP(t *testing.T) {
	d := testDirector(t)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/servers", "application/json",
		bytes.NewBufferString(`{"node": 5, "capacity_mbps": 40, "spare": true}`))
	if err != nil {
		t.Fatal(err)
	}
	var info ServerInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || !info.Draining || info.Node != 5 {
		t.Fatalf("spare POST: %d %+v, want 201 + draining at node 5", resp.StatusCode, info)
	}
	// Omitting the flag still adds an active server.
	resp, err = http.Post(srv.URL+"/v1/servers", "application/json",
		bytes.NewBufferString(`{"node": 6, "capacity_mbps": 40}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Draining {
		t.Fatal("plain add came up cordoned")
	}
}

// TestAutoscaleDurability replays a trajectory that includes warm-spare
// registration and reconciler-driven verbs through the write-ahead log:
// the recovered director must land bit-identical to an uninterrupted
// control, spare cordons intact.
func TestAutoscaleDurability(t *testing.T) {
	dm := durDelays(t)

	drive := func(d *Director) {
		for i := 0; i < 30; i++ {
			if _, err := d.Join(fmt.Sprintf("c%02d", i), (i*3)%40, i%8); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.AddSpareServer(35, 60); err != nil {
			t.Fatal(err)
		}
		if err := d.EnableAutoscale(autoscale.Config{
			UtilHigh: 0.01, UtilLow: 0.001,
			HighWindowTicks: 1, UpCooldownTicks: -1,
		}); err != nil {
			t.Fatal(err)
		}
		// The tiny watermark guarantees a scale-up: the spare is admitted
		// through the journaled UncordonServer.
		if dec, err := d.Autoscale().Tick(); err != nil || dec.Action != autoscale.ActionScaleUp {
			t.Fatalf("tick = %+v, %v, want scale_up", dec, err)
		}
		if _, err := d.AddSpareServer(22, 45); err != nil {
			t.Fatal(err)
		}
		// Now the other way: one scale-down, aged past its grace and retired.
		// The victim is an ACTIVE server, so never the tail (the spare s5):
		// the removal renumbers, and s5 — which the swap moves into the
		// vacated index — must still resolve.
		if err := d.Autoscale().SetConfig(autoscale.Config{
			UtilHigh: 0.99, UtilLow: 0.9,
			LowWindowTicks: 1, DownCooldownTicks: -1,
			MinActive: 4, RetireAfterTicks: 1,
		}); err != nil {
			t.Fatal(err)
		}
		dec, err := d.Autoscale().Tick()
		if err != nil || dec.Action != autoscale.ActionScaleDown || dec.Target == "s5" {
			t.Fatalf("tick = %+v, %v, want scale_down of an active server", dec, err)
		}
		victim := dec.Target
		for i := 0; i < 2; i++ {
			if _, err := d.Autoscale().Tick(); err != nil {
				t.Fatal(err)
			}
		}
		log := d.Autoscale().Decisions()
		if last := log[len(log)-1]; last.Action != autoscale.ActionRetire || last.Target != victim {
			t.Fatalf("last decision = %+v, want retire of non-tail %s", last, victim)
		}
		if i, err := d.serverIndex(ID(victim)); err == nil {
			t.Fatalf("retired %s still resolves (index %d)", victim, i)
		}
		if info, err := d.UncordonServer(ID("s5")); err != nil || info.ID != "s5" || info.Node != 22 {
			t.Fatalf("the spare no longer resolves by ID after the renumbering retire: %+v, %v", info, err)
		}
		if _, err := d.DrainServer(ID("s5")); err != nil {
			t.Fatal(err)
		}
		for i := 30; i < 45; i++ {
			if _, err := d.Join(fmt.Sprintf("c%02d", i), (i*3)%40, i%8); err != nil {
				t.Fatal(err)
			}
		}
	}

	control, err := New(durDirConfig(dm, 1))
	if err != nil {
		t.Fatal(err)
	}
	drive(control)

	cfg := durDirConfig(dm, 1)
	cfg.DataDir = t.TempDir()
	durable, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(durable)
	// Kill: no Close, no checkpoint — recovery replays the log.

	recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got, want := dirStateJSON(t, recovered), dirStateJSON(t, control); got != want {
		t.Fatal("recovered autoscaled trajectory diverges from control")
	}
	byID := map[string]ServerInfo{}
	for _, s := range recovered.Servers() {
		byID[s.ID] = s
	}
	if len(byID) != 5 {
		t.Fatalf("%d servers recovered, want 5 (six, one retired)", len(byID))
	}
	if s, ok := byID["s4"]; ok && s.Draining {
		t.Fatal("admitted spare s4 recovered cordoned")
	}
	if s, ok := byID["s5"]; !ok || !s.Draining || s.Node != 22 {
		t.Fatalf("warm spare s5 recovered as %+v (present=%v) — spare state or ID lost in replay", s, ok)
	}
}
