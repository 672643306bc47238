package sim

import (
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	if n := e.Run(10); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want advanced to until", e.Now())
	}
}

func TestEngineTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(1, func() { order = append(order, "a") })
	e.Schedule(1, func() { order = append(order, "b") })
	e.Schedule(1, func() { order = append(order, "c") })
	e.Run(2)
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("tie order = %v", order)
	}
}

func TestEngineRunStopsAtUntil(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Run(4)
	if fired {
		t.Fatal("event beyond until fired")
	}
	if len(e.pq) != 1 {
		t.Fatalf("pending = %d", len(e.pq))
	}
	e.Run(5)
	if !fired {
		t.Fatal("event at exactly until did not fire")
	}
}

func TestEngineEventsCanSchedule(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	e.Run(100)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEnginePanicsOnPastSchedule(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Run(2)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleAt(1, func() {})
}

func buildTestWorld(t *testing.T, seed uint64) *dve.World {
	t.Helper()
	return buildSizedWorld(t, seed, 4, 12, 120, 150)
}

func buildSizedWorld(t *testing.T, seed uint64, servers, zones, clients int, capacityMbps float64) *dve.World {
	t.Helper()
	hp := topology.DefaultHier()
	hp.ASCount = 4
	hp.NodesPerAS = 10
	g, err := topology.Hier(xrand.New(seed), hp)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dve.DefaultConfig()
	cfg.Servers = servers
	cfg.Zones = zones
	cfg.Clients = clients
	cfg.TotalCapacityMbps = capacityMbps
	w, err := dve.BuildWorld(xrand.New(seed+1), cfg, g, dm)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func defaultChurn() ChurnConfig {
	return ChurnConfig{
		JoinRate:          0.5,
		MeanSessionSec:    600,
		MoveRatePerClient: 0.002,
		ReassignEverySec:  60,
	}
}

func TestChurnConfigValidate(t *testing.T) {
	good := defaultChurn()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each case breaks one field of an otherwise valid config.
	bad := []struct {
		name string
		set  func(*ChurnConfig)
	}{
		{"JoinRate", func(c *ChurnConfig) { c.JoinRate = -1 }},
		{"MeanSessionSec", func(c *ChurnConfig) { c.MeanSessionSec = 0 }},
		{"MoveRatePerClient", func(c *ChurnConfig) { c.MoveRatePerClient = -1 }},
		{"ReassignEverySec", func(c *ChurnConfig) { c.ReassignEverySec = 0 }},
		{"SampleEverySec", func(c *ChurnConfig) { c.SampleEverySec = -1 }},
		{"ArrivalsWithJoinRate", func(c *ChurnConfig) { c.Arrivals = &ArrivalTrace{BaseRate: 1} }},
		{"ArrivalsInvalid", func(c *ChurnConfig) { c.JoinRate, c.Arrivals = 0, &ArrivalTrace{BaseRate: -1} }},
		{"AutoscaleWithoutRepair", func(c *ChurnConfig) { c.Autoscale = &AutoscaleConfig{SpareServers: 2, EverySec: 60} }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			c := defaultChurn()
			tc.set(&c)
			if err := c.Validate(); err == nil {
				t.Fatalf("config with a bad %s accepted", tc.name)
			}
		})
	}
}

func TestDriverRunsAndSamples(t *testing.T) {
	w := buildTestWorld(t, 10)
	e := NewEngine()
	d, err := NewDriver(e, w, core.GreZGreC, core.Options{Overflow: core.SpillLargestResidual}, defaultChurn(), xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.Run(300) // 5 reassignment periods
	samples := d.Samples()
	if len(samples) < 5 {
		t.Fatalf("only %d samples", len(samples))
	}
	if samples[0].Event != "initial" {
		t.Fatalf("first sample %q", samples[0].Event)
	}
	var pre, post int
	for _, s := range samples {
		if s.PQoS < 0 || s.PQoS > 1 {
			t.Fatalf("pQoS out of range: %+v", s)
		}
		if s.Utilization < 0 {
			t.Fatalf("negative utilisation: %+v", s)
		}
		switch s.Event {
		case "pre-reassign":
			pre++
		case "post-reassign":
			post++
		}
	}
	if pre == 0 || post == 0 {
		t.Fatalf("missing reassign samples: pre=%d post=%d", pre, post)
	}
	for _, err := range d.Errors() {
		t.Errorf("driver error: %v", err)
	}
}

func TestDriverDeterministic(t *testing.T) {
	run := func() []Sample {
		w := buildTestWorld(t, 20)
		e := NewEngine()
		d, err := NewDriver(e, w, core.GreZGreC, core.Options{Overflow: core.SpillLargestResidual}, defaultChurn(), xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		e.Run(200)
		return d.Samples()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDriverPopulationTracksChurn(t *testing.T) {
	w := buildTestWorld(t, 30)
	e := NewEngine()
	cfg := defaultChurn()
	cfg.JoinRate = 5              // heavy arrivals
	cfg.MeanSessionSec = 1e9      // effectively nobody leaves
	cfg.MoveRatePerClient = 0.001 // rare moves
	d, err := NewDriver(e, w, core.GreZVirC, core.Options{Overflow: core.SpillLargestResidual}, cfg, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.Run(120)
	last := d.Samples()[len(d.Samples())-1]
	if last.Clients <= 120 {
		t.Fatalf("population did not grow under heavy joins: %d", last.Clients)
	}
	// Contact state must stay aligned with the world.
	if got := d.Assignment(); len(got.ClientContact) != w.NumClients() {
		t.Fatalf("assignment has %d contacts, world %d clients", len(got.ClientContact), w.NumClients())
	}
}

func TestDriverReassignmentRestoresQoS(t *testing.T) {
	w := buildTestWorld(t, 40)
	e := NewEngine()
	cfg := defaultChurn()
	cfg.JoinRate = 2
	cfg.MeanSessionSec = 120
	cfg.MoveRatePerClient = 0.01
	d, err := NewDriver(e, w, core.GreZGreC, core.Options{Overflow: core.SpillLargestResidual}, cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.Run(600)
	// Averaged over the run, post-reassign quality should be at least
	// pre-reassign quality (the paper's "Executed" ≥ "After").
	var preSum, postSum float64
	var preN, postN int
	for _, s := range d.Samples() {
		switch s.Event {
		case "pre-reassign":
			preSum += s.PQoS
			preN++
		case "post-reassign":
			postSum += s.PQoS
			postN++
		}
	}
	if preN == 0 || postN == 0 {
		t.Fatal("missing samples")
	}
	if postSum/float64(postN) < preSum/float64(preN)-1e-9 {
		t.Fatalf("reassignment degraded quality: post %v < pre %v",
			postSum/float64(postN), preSum/float64(preN))
	}
}

// Helpers shared with trace_test.go.
func coreAlgo() core.TwoPhase       { return core.GreZGreC }
func coreOpts() core.Options        { return core.Options{Overflow: core.SpillLargestResidual} }
func rngFor(seed uint64) *xrand.RNG { return xrand.New(seed) }

// TestSamplesArePlainEvaluation: a quality sample reports exactly what
// core.Evaluate reports for the driver's current assignment, in both modes
// and after reassignments that moved zones; no sample path recounts QoS
// on its own.
func TestSamplesArePlainEvaluation(t *testing.T) {
	for _, repair := range []bool{false, true} {
		w := buildTestWorld(t, 60)
		e := NewEngine()
		cfg := defaultChurn()
		cfg.JoinRate = 2
		cfg.MoveRatePerClient = 0.02 // heavy migration → zones move on reassign
		cfg.Repair = repair
		d, err := NewDriver(e, w, core.GreZGreC, coreOpts(), cfg, xrand.New(61))
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		e.Run(400)
		for _, err := range d.Errors() {
			t.Fatalf("repair=%v driver error: %v", repair, err)
		}
		if d.TotalZoneHandoffs() == 0 {
			t.Fatalf("repair=%v: no reassignment moved a zone", repair)
		}
		d.sample("probe")
		got := d.Samples()[len(d.Samples())-1]
		want := core.Evaluate(d.world.Problem(), &core.Assignment{ZoneServer: d.zoneServer, ClientContact: d.contact})
		if got.Event != "probe" || got.PQoS != want.PQoS || got.Utilization != want.Utilization {
			t.Fatalf("repair=%v: sample %+v, Evaluate pQoS %v utilization %v", repair, got, want.PQoS, want.Utilization)
		}
	}
}
