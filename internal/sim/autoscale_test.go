package sim

import (
	"math"
	"reflect"
	"testing"

	"dvecap/internal/autoscale"
	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
)

func TestArrivalTraceValidate(t *testing.T) {
	good := ArrivalTrace{BaseRate: 1, DiurnalAmplitude: 0.5, DiurnalPeriodSec: 3600,
		Flashes: []Flash{{StartSec: 100, DurationSec: 60, Multiplier: 3}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ArrivalTrace{
		{BaseRate: 0},
		{BaseRate: 1, DiurnalAmplitude: -0.1},
		{BaseRate: 1, DiurnalAmplitude: 1},
		{BaseRate: 1, DiurnalAmplitude: 0.5}, // tide without a period
		{BaseRate: 1, Flashes: []Flash{{StartSec: -1, DurationSec: 1, Multiplier: 2}}},
		{BaseRate: 1, Flashes: []Flash{{StartSec: 0, DurationSec: 0, Multiplier: 2}}},
		{BaseRate: 1, Flashes: []Flash{{StartSec: 0, DurationSec: 1, Multiplier: 0}}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted: %+v", i, tr)
		}
	}
}

func TestArrivalTraceRate(t *testing.T) {
	tr := ArrivalTrace{BaseRate: 10, DiurnalAmplitude: 0.5, DiurnalPeriodSec: 1000,
		Flashes: []Flash{{StartSec: 100, DurationSec: 50, Multiplier: 4}}}
	// The tide opens at the trough and peaks half a period in.
	if got := tr.Rate(0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Rate(0) = %v, want 5 (trough)", got)
	}
	if got := tr.Rate(500); math.Abs(got-15) > 1e-9 {
		t.Fatalf("Rate(500) = %v, want 15 (peak)", got)
	}
	// Inside the flash the tide is multiplied; outside it is not.
	base := tr.Rate(99)
	if got := tr.Rate(100); math.Abs(got-4*tr.BaseRate*(1+0.5*math.Sin(2*math.Pi*0.1-math.Pi/2))) > 1e-9 {
		t.Fatalf("Rate(100) = %v, want 4x the tide", got)
	}
	if got := tr.Rate(150); got > 2*base {
		t.Fatalf("Rate(150) = %v, flash did not end", got)
	}
	// MaxRate dominates Rate everywhere (the thinning envelope invariant).
	max := tr.MaxRate()
	for ts := 0.0; ts < 2000; ts += 7 {
		if r := tr.Rate(ts); r > max+1e-9 {
			t.Fatalf("Rate(%v) = %v exceeds MaxRate %v", ts, r, max)
		}
	}
	// Sub-1 multipliers (a dip) must not inflate the envelope.
	dip := ArrivalTrace{BaseRate: 10, Flashes: []Flash{{StartSec: 0, DurationSec: 10, Multiplier: 0.5}}}
	if got := dip.MaxRate(); got != 10 {
		t.Fatalf("MaxRate with a dip = %v, want 10", got)
	}
}

func TestAutoscaleConfigValidate(t *testing.T) {
	cfg := repairChurn()
	cfg.Autoscale = &AutoscaleConfig{SpareServers: 2, EverySec: 60}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Autoscale without repair mode.
	noRepair := cfg
	noRepair.Repair = false
	if err := noRepair.Validate(); err == nil {
		t.Fatal("autoscale accepted without repair mode")
	}
	// Arrival trace is exclusive with a constant join rate.
	both := cfg
	both.Arrivals = &ArrivalTrace{BaseRate: 1}
	if err := both.Validate(); err == nil {
		t.Fatal("arrival trace accepted alongside JoinRate")
	}
	both.JoinRate = 0
	if err := both.Validate(); err != nil {
		t.Fatal(err)
	}
	// Bad nested configs surface.
	badEvery := cfg
	badEvery.Autoscale = &AutoscaleConfig{SpareServers: 2, EverySec: 0}
	if err := badEvery.Validate(); err == nil {
		t.Fatal("EverySec = 0 accepted")
	}
	badSpares := cfg
	badSpares.Autoscale = &AutoscaleConfig{SpareServers: -1, EverySec: 60}
	if err := badSpares.Validate(); err == nil {
		t.Fatal("negative spares accepted")
	}
	badPolicy := cfg
	badPolicy.Autoscale = &AutoscaleConfig{SpareServers: 2, EverySec: 60,
		Policy: autoscale.Config{UtilHigh: 2}}
	if err := badPolicy.Validate(); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// buildAutoscaleWorld builds a world provisioned for a full diurnal swing:
// the whole 8-server fleet covers the flash-crowd peak under the high
// watermark, while the trough needs only a small active prefix.
func buildAutoscaleWorld(t *testing.T, seed uint64) *dve.World {
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
	cfg.Servers = 8
	cfg.Zones = 16
	cfg.Clients = 40
	cfg.TotalCapacityMbps = 220
	w, err := dve.BuildWorld(xrand.New(seed+1), cfg, g, dm)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// diurnalFlashTrace is the acceptance trace: two diurnal periods with a
// flash crowd landing on the second peak.
func diurnalFlashTrace() *ArrivalTrace {
	return &ArrivalTrace{
		BaseRate:         0.5,
		DiurnalAmplitude: 0.8,
		DiurnalPeriodSec: 3000,
		Flashes:          []Flash{{StartSec: 4200, DurationSec: 300, Multiplier: 1.4}},
	}
}

// runAutoscale drives the acceptance trace for 6000 virtual seconds and
// returns the driver for scoring.
func runAutoscale(t *testing.T, workers int, oracle bool, pol autoscale.Config) *Driver {
	t.Helper()
	w := buildAutoscaleWorld(t, 90)
	e := NewEngine()
	opt := coreOpts()
	opt.Workers = workers
	cfg := repairChurn()
	cfg.JoinRate = 0
	cfg.Arrivals = diurnalFlashTrace()
	cfg.MeanSessionSec = 300
	cfg.MoveRatePerClient = 0.002
	cfg.SampleEverySec = 30
	cfg.Autoscale = &AutoscaleConfig{
		Policy:       pol,
		SpareServers: 5,
		EverySec:     60,
		Oracle:       oracle,
	}
	d, err := NewDriver(e, w, core.GreZGreC, opt, cfg, xrand.New(91))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.Run(6000)
	for _, err := range d.Errors() {
		t.Fatalf("driver error (oracle=%v workers=%d): %v", oracle, workers, err)
	}
	return d
}

// acceptancePolicy is the reconciler configuration scored against the
// oracle on the diurnal + flash-crowd trace.
func acceptancePolicy() autoscale.Config {
	return autoscale.Config{
		UtilHigh:          0.75,
		UtilLow:           0.45,
		HighWindowTicks:   2,
		LowWindowTicks:    2,
		UpCooldownTicks:   1,
		DownCooldownTicks: 1,
	}
}

// timeAvgPQoS integrates pQoS over the sample sequence (piecewise-constant
// between samples), so dips during flash crowds are weighted by how long
// they lasted, not by how many samples landed in them.
func timeAvgPQoS(samples []Sample) float64 {
	if len(samples) < 2 {
		if len(samples) == 1 {
			return samples[0].PQoS
		}
		return 0
	}
	area, prev := 0.0, samples[0]
	for _, s := range samples[1:] {
		area += prev.PQoS * (s.Time - prev.Time)
		prev = s
	}
	return area / (prev.Time - samples[0].Time)
}

// TestAutoscaleTracksOracle is the ISSUE's acceptance bar: on the diurnal
// + flash-crowd trace, the hysteresis reconciler must hold time-averaged
// pQoS within epsilon of the clairvoyant oracle provisioner while
// spending at most 1.2x its server-hours.
func TestAutoscaleTracksOracle(t *testing.T) {
	oracle := runAutoscale(t, 1, true, acceptancePolicy())
	rec := runAutoscale(t, 1, false, acceptancePolicy())

	oHours, rHours := oracle.ServerHours(), rec.ServerHours()
	oPQoS, rPQoS := timeAvgPQoS(oracle.Samples()), timeAvgPQoS(rec.Samples())
	t.Logf("oracle: %.2f server-hours, pQoS %.4f, %d moves", oHours, oPQoS, oracle.OracleMoves())
	t.Logf("reconciler: %.2f server-hours, pQoS %.4f, %d decisions", rHours, rPQoS, len(rec.AutoscaleDecisions()))

	if oHours <= 0 {
		t.Fatal("oracle accumulated no server-hours")
	}
	if rHours > 1.2*oHours {
		t.Fatalf("reconciler spent %.2f server-hours, budget 1.2x oracle = %.2f", rHours, 1.2*oHours)
	}
	const eps = 0.05
	if rPQoS < oPQoS-eps {
		t.Fatalf("reconciler pQoS %.4f more than eps=%.2f below oracle %.4f", rPQoS, eps, oPQoS)
	}
	// The controller actually worked: the fleet breathed with the tide.
	ds := rec.AutoscaleDecisions()
	ups, downs := 0, 0
	for _, d := range ds {
		switch d.Action {
		case autoscale.ActionScaleUp:
			ups++
		case autoscale.ActionScaleDown:
			downs++
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("fleet never breathed: %d ups, %d downs", ups, downs)
	}
}

// TestAutoscaleWorkersDeterministic: the reconciler's decision sequence
// and the run's samples are bit-identical across worker counts — the end
// of the DESIGN.md §14 determinism chain.
func TestAutoscaleWorkersDeterministic(t *testing.T) {
	seqD := runAutoscale(t, 1, false, acceptancePolicy())
	seq, seqDecisions := seqD.Samples(), seqD.AutoscaleDecisions()
	parD := runAutoscale(t, 4, false, acceptancePolicy())
	par, parDecisions := parD.Samples(), parD.AutoscaleDecisions()
	if !reflect.DeepEqual(seqDecisions, parDecisions) {
		t.Fatalf("decision logs diverge across workers:\n1: %+v\n4: %+v", seqDecisions, parDecisions)
	}
	if len(seq) != len(par) {
		t.Fatalf("sample counts diverge: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("sample %d differs across workers: %+v vs %+v", i, seq[i], par[i])
		}
	}
	if seqD.ServerHours() != parD.ServerHours() {
		t.Fatalf("server-hours diverge: %v vs %v", seqD.ServerHours(), parD.ServerHours())
	}
}

// flappingTrace is a square wave: repeated short flash crowds over a low
// base rate, the classic thrash-inducing load for a threshold controller.
func flappingTrace() *ArrivalTrace {
	fl := make([]Flash, 0, 8)
	for start := 300.0; start < 4800; start += 600 {
		fl = append(fl, Flash{StartSec: start, DurationSec: 300, Multiplier: 12})
	}
	return &ArrivalTrace{BaseRate: 0.15, Flashes: fl}
}

// runFlapping drives the square-wave trace through a given policy and
// returns the fired-decision log.
func runFlapping(t *testing.T, workers int, pol autoscale.Config) []autoscale.Decision {
	t.Helper()
	w := buildAutoscaleWorld(t, 70)
	e := NewEngine()
	opt := coreOpts()
	opt.Workers = workers
	cfg := repairChurn()
	cfg.JoinRate = 0
	cfg.Arrivals = flappingTrace()
	cfg.MeanSessionSec = 150
	cfg.MoveRatePerClient = 0.002
	cfg.Autoscale = &AutoscaleConfig{Policy: pol, SpareServers: 5, EverySec: 30}
	d, err := NewDriver(e, w, core.GreZGreC, opt, cfg, xrand.New(71))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.Run(4800)
	for _, err := range d.Errors() {
		t.Fatalf("driver error: %v", err)
	}
	return d.AutoscaleDecisions()
}

// TestAutoscaleHysteresisDampsFlapping is the churn-budget satellite: on a
// flapping load the naive threshold controller (windows of 1, no
// cooldowns) thrashes, while the tuned hysteresis config keeps topology
// churn under a fixed budget — bit-identically across worker counts.
func TestAutoscaleHysteresisDampsFlapping(t *testing.T) {
	naive := autoscale.Config{
		UtilHigh: 0.75, UtilLow: 0.35,
		HighWindowTicks: 1, LowWindowTicks: 1,
		UpCooldownTicks: -1, DownCooldownTicks: -1,
	}
	tuned := autoscale.Config{
		UtilHigh: 0.75, UtilLow: 0.35,
		HighWindowTicks: 3, LowWindowTicks: 8,
		UpCooldownTicks: 2, DownCooldownTicks: 10,
	}
	// 4800 virtual seconds = 1h20m: the budget is 18 topology events/hour.
	const churnBudget = 24

	naiveDs := runFlapping(t, 1, naive)
	tunedDs := runFlapping(t, 1, tuned)
	t.Logf("naive: %d decisions; tuned: %d decisions (budget %d)", len(naiveDs), len(tunedDs), churnBudget)

	if len(naiveDs) <= churnBudget {
		t.Fatalf("naive controller did not thrash: %d decisions, budget %d — the trace is too gentle to prove damping", len(naiveDs), churnBudget)
	}
	if len(tunedDs) > churnBudget {
		t.Fatalf("tuned controller blew the churn budget: %d decisions > %d", len(tunedDs), churnBudget)
	}
	if len(tunedDs) >= len(naiveDs) {
		t.Fatalf("hysteresis did not damp churn: tuned %d >= naive %d", len(tunedDs), len(naiveDs))
	}

	// Both controllers are deterministic across worker counts.
	for _, pol := range []autoscale.Config{naive, tuned} {
		seq := runFlapping(t, 1, pol)
		par := runFlapping(t, 4, pol)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("decision logs diverge across workers:\n1: %+v\n4: %+v", seq, par)
		}
	}
}

// TestAutoscaleSpareValidation: the pool cannot swallow the whole fleet.
func TestAutoscaleSpareValidation(t *testing.T) {
	w := buildTestWorld(t, 10)
	cfg := repairChurn()
	cfg.Autoscale = &AutoscaleConfig{SpareServers: w.Cfg.Servers, EverySec: 60}
	if _, err := NewDriver(NewEngine(), w, core.GreZGreC, coreOpts(), cfg, xrand.New(11)); err == nil {
		t.Fatal("SpareServers = fleet size accepted")
	}
}
