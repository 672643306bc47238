package sim

import (
	"math"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

func repairChurn() ChurnConfig {
	cfg := defaultChurn()
	cfg.Repair = true
	return cfg
}

func TestRepairConfigValidate(t *testing.T) {
	cfg := repairChurn()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDriverRepairModeRunsAndSamples(t *testing.T) {
	w := buildTestWorld(t, 10)
	e := NewEngine()
	cfg := repairChurn()
	cfg.JoinRate = 2
	cfg.MeanSessionSec = 120
	cfg.MoveRatePerClient = 0.01
	d, err := NewDriver(e, w, core.GreZGreC, coreOpts(), cfg, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.Run(300)
	for _, err := range d.Errors() {
		t.Errorf("driver error: %v", err)
	}
	if len(d.Samples()) < 5 {
		t.Fatalf("only %d samples", len(d.Samples()))
	}
	for _, s := range d.Samples() {
		if s.PQoS < 0 || s.PQoS > 1 {
			t.Fatalf("pQoS out of range: %+v", s)
		}
	}
	st, ok := d.RepairStats()
	if !ok {
		t.Fatal("repair mode driver reports no repair stats")
	}
	if st.Events == 0 {
		t.Fatalf("no events reached the planner: %+v", st)
	}
	if st.Joins == 0 || st.Leaves == 0 || st.Moves == 0 {
		t.Fatalf("some event type never reached the planner: %+v", st)
	}
	if got := d.planner().NumClients(); got != w.NumClients() {
		t.Fatalf("planner population %d, world %d", got, w.NumClients())
	}
	if a := d.Assignment(); len(a.ClientContact) != w.NumClients() {
		t.Fatalf("assignment has %d contacts, world %d clients", len(a.ClientContact), w.NumClients())
	}
}

// TestDriverRepairMirrorsWorld is the integration invariant behind repair
// mode: after an arbitrary run, the planner's problem mirror must agree
// with a fresh world snapshot — zones, population-dependent bandwidth and
// delay rows — under the world→ID→dense-index mapping.
func TestDriverRepairMirrorsWorld(t *testing.T) {
	w := buildTestWorld(t, 20)
	e := NewEngine()
	cfg := repairChurn()
	cfg.JoinRate = 3
	cfg.MeanSessionSec = 100
	cfg.MoveRatePerClient = 0.02
	d, err := NewDriver(e, w, core.GreZGreC, coreOpts(), cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.Run(400)
	for _, err := range d.Errors() {
		t.Fatalf("driver error: %v", err)
	}
	wp := w.Problem()
	pp := d.planner().Problem()
	if pp.NumClients() != wp.NumClients() {
		t.Fatalf("planner mirrors %d clients, world has %d", pp.NumClients(), wp.NumClients())
	}
	for j := 0; j < wp.NumClients(); j++ {
		idx, err := d.m.Binding().Index(d.ids[j])
		if err != nil {
			t.Fatal(err)
		}
		if pp.ClientZones[idx] != wp.ClientZones[j] {
			t.Fatalf("world client %d: planner zone %d, world zone %d", j, pp.ClientZones[idx], wp.ClientZones[j])
		}
		if math.Abs(pp.ClientRT[idx]-wp.ClientRT[j]) > 1e-9 {
			t.Fatalf("world client %d: planner RT %v, world RT %v", j, pp.ClientRT[idx], wp.ClientRT[j])
		}
		for i := range wp.CS[j] {
			if d := pp.CSAt(idx, i); d != wp.CS[j][i] {
				t.Fatalf("world client %d: planner CS[%d] %v, world %v", j, i, d, wp.CS[j][i])
			}
		}
	}
}

func TestDriverRepairDeterministic(t *testing.T) {
	run := func() ([]Sample, int) {
		w := buildTestWorld(t, 30)
		e := NewEngine()
		d, err := NewDriver(e, w, core.GreZGreC, coreOpts(), repairChurn(), xrand.New(13))
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		e.Run(200)
		return d.Samples(), d.TotalZoneHandoffs()
	}
	a, ha := run()
	b, hb := run()
	if len(a) != len(b) || ha != hb {
		t.Fatalf("runs diverge: %d/%d samples, %d/%d handoffs", len(a), len(b), ha, hb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestDriverRepairWorkersDeterministic runs the identical repair-mode
// churn (same world, same seeds) with sequential and sharded scans: the
// parallel search is bit-identical to the sequential one (DESIGN.md §8),
// so every sample and every handoff count must match end to end.
func TestDriverRepairWorkersDeterministic(t *testing.T) {
	run := func(workers int) ([]Sample, int) {
		w := buildTestWorld(t, 30)
		e := NewEngine()
		opt := coreOpts()
		opt.Workers = workers
		cfg := repairChurn()
		cfg.JoinRate = 2
		cfg.MeanSessionSec = 120
		cfg.MoveRatePerClient = 0.01
		d, err := NewDriver(e, w, core.GreZGreC, opt, cfg, xrand.New(41))
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		e.Run(250)
		for _, err := range d.Errors() {
			t.Fatalf("workers=%d driver error: %v", workers, err)
		}
		return d.Samples(), d.TotalZoneHandoffs()
	}
	seq, seqHandoffs := run(1)
	for _, workers := range []int{4, 8} {
		par, parHandoffs := run(workers)
		if len(seq) != len(par) || seqHandoffs != parHandoffs {
			t.Fatalf("workers=%d diverged: %d/%d samples, %d/%d handoffs",
				workers, len(seq), len(par), seqHandoffs, parHandoffs)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d sample %d differs: %+v vs %+v", workers, i, seq[i], par[i])
			}
		}
	}
}

// TestDriverRepairFewerHandoffs compares a repair-mode run against a
// full-resolve run of the same world and churn seed: repair must not hand
// zones off more often, and its quality must stay comparable.
func TestDriverRepairFewerHandoffs(t *testing.T) {
	run := func(repairMode bool) (meanPQoS float64, handoffs int) {
		w := buildTestWorld(t, 50)
		e := NewEngine()
		cfg := defaultChurn()
		// Equilibrium population = JoinRate × MeanSessionSec = the initial
		// 120 clients, so the world stays provisioned and quality is
		// attainable — the regime where repair-vs-resolve is meaningful.
		cfg.JoinRate = 0.2
		cfg.MoveRatePerClient = 0.005
		cfg.SampleEverySec = 10
		cfg.Repair = repairMode
		d, err := NewDriver(e, w, core.GreZGreC, coreOpts(), cfg, xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		e.Run(600)
		for _, err := range d.Errors() {
			t.Fatalf("driver error: %v", err)
		}
		var sum float64
		n := 0
		for _, s := range d.Samples() {
			if s.Event == "tick" {
				sum += s.PQoS
				n++
			}
		}
		if n == 0 {
			t.Fatal("no tick samples")
		}
		return sum / float64(n), d.TotalZoneHandoffs()
	}
	fullPQoS, fullHandoffs := run(false)
	repPQoS, repHandoffs := run(true)
	if repHandoffs > fullHandoffs {
		t.Fatalf("repair mode handed off more zones: %d vs %d", repHandoffs, fullHandoffs)
	}
	if repPQoS < fullPQoS-0.05 {
		t.Fatalf("repair mode quality collapsed: %.3f vs %.3f", repPQoS, fullPQoS)
	}
}

// TestDriverRepairQualityTracksFullResolve: after sustained churn through
// the repair bridge — 5 rounds of 40 joins, 40 leaves and 40 moves on 500
// clients — the repaired solution's quality stays close to
// what a from-scratch solve of the same population achieves.
func TestDriverRepairQualityTracksFullResolve(t *testing.T) {
	w := buildSizedWorld(t, 9, 8, 30, 500, 500)
	d, err := NewDriver(NewEngine(), w, core.GreZGreC, coreOpts(), repairChurn(), xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 40; i++ {
			must(d.join(w.Join(d.rng, 1)[0]))
		}
		for i := 0; i < 40; i++ {
			removed, err := w.Leave(d.rng, 1)
			must(err)
			must(d.leave(removed[0]))
		}
		for i := 0; i < 40; i++ {
			moved, err := w.Move(d.rng, 1)
			must(err)
			must(d.move(moved[0]))
		}
	}
	if st := d.planner().Stats(); st.Joins != 200 || st.Leaves != 200 || st.FullSolves != 0 {
		t.Fatalf("the bridge did not carry the churn (or a re-solve hid it): %+v", st)
	}
	truth := w.Problem()
	repaired := core.Evaluate(truth, d.Assignment())
	fresh, err := core.GreZGreC.Solve(xrand.New(1), truth, coreOpts())
	if err != nil {
		t.Fatal(err)
	}
	if resolved := core.Evaluate(truth, fresh); repaired.PQoS < resolved.PQoS-0.05 {
		t.Fatalf("repaired pQoS %.3f trails re-solved %.3f by more than 0.05", repaired.PQoS, resolved.PQoS)
	}
}
