package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dvecap/internal/dve"
)

// smokeSetup keeps replication counts small so the full suite stays fast;
// the real paper-scale runs happen in the benchmark harness and capsim.
func smokeSetup() Setup {
	s := DefaultSetup()
	s.Reps = 3
	return s
}

func TestTable1Smoke(t *testing.T) {
	res, err := Table1(smokeSetup(), Table1Options{
		Scenarios: []string{"5s-15z-200c-100cp", "10s-30z-400c-200cp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, n := range res.Names {
			c := row.Cells[n]
			if s := c.PQoS.String(); !strings.HasSuffix(s, "(n=3)") {
				t.Fatalf("%s/%s aggregated %s, want 3 reps", row.Scenario, n, s)
			}
			if m := c.PQoS.Mean(); m < 0 || m > 1 {
				t.Fatalf("%s/%s pQoS %v", row.Scenario, n, m)
			}
			if r := c.R.Mean(); r <= 0 || r > 1.5 {
				t.Fatalf("%s/%s R %v", row.Scenario, n, r)
			}
		}
	}
	out := res.String()
	if !strings.Contains(out, "5s-15z-200c-100cp") || !strings.Contains(out, "GreZ-GreC") {
		t.Fatalf("rendering missing content:\n%s", out)
	}
}

func TestTable1OrderingHolds(t *testing.T) {
	// The paper's central claim: GreZ-* beats RanZ-* on pQoS; GreZ-GreC is
	// the best of the four. With a few reps the gap is wide enough to
	// assert on the default scenario.
	s := smokeSetup()
	s.Reps = 5
	res, err := Table1(s, Table1Options{Scenarios: []string{"20s-80z-1000c-500cp"}})
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Rows[0].Cells
	gzgc := cells["GreZ-GreC"].PQoS.Mean()
	gzvc := cells["GreZ-VirC"].PQoS.Mean()
	rzgc := cells["RanZ-GreC"].PQoS.Mean()
	rzvc := cells["RanZ-VirC"].PQoS.Mean()
	if gzgc < gzvc {
		t.Fatalf("GreZ-GreC (%v) below GreZ-VirC (%v)", gzgc, gzvc)
	}
	if gzvc <= rzvc {
		t.Fatalf("GreZ-VirC (%v) not above RanZ-VirC (%v)", gzvc, rzvc)
	}
	if rzgc <= rzvc {
		t.Fatalf("RanZ-GreC (%v) not above RanZ-VirC (%v)", rzgc, rzvc)
	}
	if gzgc <= rzgc {
		t.Fatalf("GreZ-GreC (%v) not above RanZ-GreC (%v)", gzgc, rzgc)
	}
	// VirC refinements add no forwarding load: R(GreZ-VirC) < R(GreZ-GreC).
	if cells["GreZ-VirC"].R.Mean() > cells["GreZ-GreC"].R.Mean() {
		t.Fatalf("VirC consumed more bandwidth than GreC")
	}
}

func TestTable1WithLP(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := Table1(s, Table1Options{
		IncludeLP:  true,
		LPReps:     2,
		LPDeadline: 30 * time.Second,
		Scenarios:  []string{"5s-15z-200c-100cp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.LP == nil {
		t.Fatal("LP column missing")
	}
	if row.LPLimits != 0 {
		t.Fatalf("an exact run stopped (%s): the lp_solve cell is unproven", row.LPLimits)
	}
	// The exact solution can never lose to the heuristics on the IAP+RAP
	// objective; on pQoS it should be at least competitive with GreZ-GreC
	// minus sampling noise.
	if row.LP.PQoS.Mean() < row.Cells["GreZ-GreC"].PQoS.Mean()-0.1 {
		t.Fatalf("exact pQoS %v far below GreZ-GreC %v",
			row.LP.PQoS.Mean(), row.Cells["GreZ-GreC"].PQoS.Mean())
	}
}

func TestFig4Smoke(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := Fig4(s, Fig4Options{Scenario: "10s-30z-400c-200cp", Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, series := range res.Series {
		if len(series.Points) != 11 {
			t.Fatalf("%s has %d points", series.Algorithm, len(series.Points))
		}
		last := -1.0
		for _, pt := range series.Points {
			if pt.Y < last-1e-12 {
				t.Fatalf("%s CDF not monotone", series.Algorithm)
			}
			last = pt.Y
			if pt.Y < 0 || pt.Y > 1 {
				t.Fatalf("%s CDF out of range", series.Algorithm)
			}
		}
		if series.PAtBound <= 0 {
			t.Fatalf("%s pQoS at bound = %v", series.Algorithm, series.PAtBound)
		}
	}
	if !strings.Contains(res.String(), "Figure 4") {
		t.Fatal("rendering broken")
	}
}

func TestFig4BestAlgorithmDominatesAtBound(t *testing.T) {
	s := smokeSetup()
	res, err := Fig4(s, Fig4Options{Scenario: "10s-30z-400c-200cp", Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]float64{}
	for _, series := range res.Series {
		at[series.Algorithm] = series.PAtBound
	}
	if at["GreZ-GreC"] < at["RanZ-VirC"] {
		t.Fatalf("GreZ-GreC CDF at bound (%v) below RanZ-VirC (%v)",
			at["GreZ-GreC"], at["RanZ-VirC"])
	}
}

func TestFig5Smoke(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := Fig5(s, Fig5Options{
		Correlations: []float64{0, 1},
		Scenario:     "10s-30z-400c-200cp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Bound != 200 {
		t.Fatalf("bound = %v, want the paper's 200", res.Bound)
	}
	// GreZ-* must benefit from perfect correlation.
	lo := res.Points[0].Cells["GreZ-GreC"].PQoS.Mean()
	hi := res.Points[1].Cells["GreZ-GreC"].PQoS.Mean()
	if hi < lo {
		t.Fatalf("GreZ-GreC did not improve with correlation: %v → %v", lo, hi)
	}
	if !strings.Contains(res.String(), "Figure 5(a)") {
		t.Fatal("rendering broken")
	}
}

func TestFig6Smoke(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := Fig6(s, Fig6Options{Scenario: "10s-30z-400c-200cp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Virtual-world clustering inflates bandwidth demand (quadratic per
	// zone): utilisation for type 3 (VW clustered) must exceed type 1
	// (uniform) for the no-forwarding algorithm.
	uni := res.Points[0].Cells["GreZ-VirC"].R.Mean()
	vw := res.Points[2].Cells["GreZ-VirC"].R.Mean()
	if vw <= uni {
		t.Fatalf("VW clustering did not raise utilisation: %v vs %v", vw, uni)
	}
	if !strings.Contains(res.String(), "Figure 6(b)") {
		t.Fatal("rendering broken")
	}
}

func TestTable3Smoke(t *testing.T) {
	s := smokeSetup()
	res, err := Table3(s, Table3Options{
		Scenario: "10s-30z-400c-200cp",
		Join:     80, Leave: 80, Move: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if s := row.Before.String(); !strings.HasSuffix(s, "(n=3)") {
			t.Fatalf("%s aggregated %s, want 3 reps", row.Algorithm, s)
		}
		// Re-execution must not be worse than the degraded assignment for
		// the delay-aware algorithms (the paper's core point).
		if row.Algorithm == "GreZ-GreC" && row.Executed.Mean() < row.After.Mean()-0.02 {
			t.Fatalf("%s: executed %v below after %v",
				row.Algorithm, row.Executed.Mean(), row.After.Mean())
		}
	}
	if !strings.Contains(res.String(), "Table 3") {
		t.Fatal("rendering broken")
	}
}

func TestTable4Smoke(t *testing.T) {
	s := smokeSetup()
	res, err := Table4(s, Table4Options{Scenario: "10s-30z-400c-200cp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 {
		t.Fatalf("columns = %d", len(res.Columns))
	}
	for _, col := range res.Columns {
		for _, n := range res.Names {
			if m := col.Cells[n].PQoS.Mean(); m < 0 || m > 1 {
				t.Fatalf("%s/%s pQoS %v", col.Model.Name, n, m)
			}
		}
	}
	// Larger error cannot help the delay-aware algorithms.
	king := res.Columns[0].Cells["GreZ-GreC"].PQoS.Mean()
	idmaps := res.Columns[1].Cells["GreZ-GreC"].PQoS.Mean()
	if idmaps > king+0.05 {
		t.Fatalf("more noise improved GreZ-GreC: %v → %v", king, idmaps)
	}
	if !strings.Contains(res.String(), "Table 4") {
		t.Fatal("rendering broken")
	}
}

func TestAblationSmoke(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := Ablation(s, AblationOptions{Scenario: "10s-30z-400c-200cp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base := res.Rows[0]
	withLS := res.Rows[2]
	if withLS.PQoS.Mean() < base.PQoS.Mean()-1e-9 {
		t.Fatalf("local search hurt pQoS: %v vs %v", withLS.PQoS.Mean(), base.PQoS.Mean())
	}
	if !strings.Contains(res.String(), "Ablation") {
		t.Fatal("rendering broken")
	}
}

func TestRuntimeSmoke(t *testing.T) {
	s := smokeSetup()
	res, err := Runtime(s, RuntimeOptions{
		Scenarios: []string{"5s-15z-200c-100cp", "10s-30z-400c-200cp"},
		IncludeLP: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for name, d := range row.Heuristic {
			if d <= 0 {
				t.Fatalf("%s/%s has zero duration", row.Scenario, name)
			}
			if d > time.Second {
				t.Fatalf("%s/%s took %v; the paper promises < 1 s", row.Scenario, name, d)
			}
		}
	}
	if !strings.Contains(res.String(), "Runtime") {
		t.Fatal("rendering broken")
	}
}

// TestRuntimeNamesTheExactLimit: an unproven exact phase whose Elapsed
// reached the deadline is labelled by it, any other unproven phase by
// milp's node cap, and the runtime table prints the label.
func TestRuntimeNamesTheExactLimit(t *testing.T) {
	const deadline = time.Minute
	for _, tc := range []struct {
		name             string
		iapOpt, rapOpt   bool
		iapTime, rapTime time.Duration
		want             string
	}{
		{"proven", true, true, time.Second, time.Second, " 14.2s"},
		{"node cap", false, true, 14 * time.Second, 200 * time.Millisecond, " 14.2s (node cap hit)"},
		{"deadline", true, false, time.Second, deadline, " 14.2s (deadline hit)"},
		{"both", false, false, deadline + time.Millisecond, time.Second, " 14.2s (node cap and deadline hit)"},
	} {
		res := &RuntimeResult{Names: []string{"GreZ-GreC"}, Rows: []RuntimeRow{{
			Scenario:  "5s-15z-200c-100cp",
			Heuristic: map[string]time.Duration{"GreZ-GreC": time.Millisecond},
			LP:        14200 * time.Millisecond,
			LPRan:     true,
			LPLimits: exactLimit(tc.iapOpt, tc.iapTime, deadline) |
				exactLimit(tc.rapOpt, tc.rapTime, deadline),
		}}}
		lines := strings.Split(strings.TrimSpace(res.String()), "\n")
		if row := strings.TrimRight(lines[len(lines)-1], " "); !strings.HasSuffix(row, tc.want) {
			t.Errorf("%s: runtime row %q, want it to end in %q", tc.name, row, tc.want)
		}
	}
}

func TestUSBackboneSetupWorks(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	s.Topology = TopoUSBackbone
	res, err := Table1(s, Table1Options{Scenarios: []string{"5s-15z-200c-100cp"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Names {
		if m := res.Rows[0].Cells[n].PQoS.Mean(); m < 0 || m > 1 {
			t.Fatalf("backbone %s pQoS %v", n, m)
		}
	}
}

func TestSetupDeterminism(t *testing.T) {
	run := func() string {
		s := smokeSetup()
		s.Reps = 2
		res, err := Table1(s, Table1Options{Scenarios: []string{"5s-15z-200c-100cp"}})
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical setups produced different tables:\n%s\nvs\n%s", a, b)
	}
}

func TestUnknownTopologyRejected(t *testing.T) {
	s := smokeSetup()
	s.Topology = "nonsense"
	if _, err := Table1(s, Table1Options{Scenarios: []string{"5s-15z-200c-100cp"}}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestBaselinesSmoke(t *testing.T) {
	s := smokeSetup()
	res, err := Baselines(s, BaselinesOptions{Scenario: "10s-30z-400c-200cp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 5 {
		t.Fatalf("names = %v", res.Names)
	}
	// The paper's delay-aware pipeline must dominate blind load balancing.
	if res.Cells["GreZ-GreC"].PQoS.Mean() <= res.Cells["LoadZ-VirC"].PQoS.Mean() {
		t.Fatalf("GreZ-GreC (%v) did not beat LoadZ-VirC (%v)",
			res.Cells["GreZ-GreC"].PQoS.Mean(), res.Cells["LoadZ-VirC"].PQoS.Mean())
	}
	if !strings.Contains(res.String(), "baselines") {
		t.Fatal("rendering broken")
	}
}

func TestStalenessSmoke(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := Staleness(s, StalenessOptions{
		Periods:    []float64{30, 300},
		HorizonSec: 600,
		Scenario:   "10s-30z-400c-200cp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	fast, slow := res.Points[0], res.Points[1]
	// More frequent reassignment must not give a worse time-averaged pQoS
	// (allowing a little sampling noise).
	if fast.MeanPQoS.Mean() < slow.MeanPQoS.Mean()-0.05 {
		t.Fatalf("frequent reassignment worse: %v vs %v",
			fast.MeanPQoS.Mean(), slow.MeanPQoS.Mean())
	}
	if !strings.Contains(res.String(), "Staleness") {
		t.Fatal("rendering broken")
	}
}

func TestRobustnessSmoke(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := Robustness(s, RobustnessOptions{Scenario: "10s-30z-400c-200cp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's ordering must hold on every substrate — that is the
	// point of the cross-check.
	for _, row := range res.Rows {
		gz := row.Cells["GreZ-GreC"].PQoS.Mean()
		rz := row.Cells["RanZ-VirC"].PQoS.Mean()
		if gz <= rz {
			t.Fatalf("%s: GreZ-GreC (%v) did not beat RanZ-VirC (%v)", row.Topology, gz, rz)
		}
	}
	if !strings.Contains(res.String(), "robustness") {
		t.Fatal("rendering broken")
	}
}

func TestFlowCheckSmoke(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := FlowCheck(s, FlowCheckOptions{
		Scenario:  "10s-30z-400c-200cp",
		Headrooms: []float64{4, 1.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(res.Knee) != 2 {
		t.Fatalf("shape: %d rows, %d knee points", len(res.Rows), len(res.Knee))
	}
	// At 4x headroom the models agree closely; at 1.02x queueing bites.
	wide, tight := res.Knee[0], res.Knee[1]
	wideGap := wide.Analytic.Mean() - wide.Simulated.Mean()
	tightGap := tight.Analytic.Mean() - tight.Simulated.Mean()
	if wideGap > 0.05 {
		t.Fatalf("models disagree at 4x headroom: gap %v", wideGap)
	}
	if tightGap <= wideGap {
		t.Fatalf("queueing cost did not grow toward the knee: %v vs %v", tightGap, wideGap)
	}
	if !strings.Contains(res.String(), "Knee profile") {
		t.Fatal("rendering broken")
	}
}

func TestRepairSmoke(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := Repair(s, RepairOptions{
		HorizonSec: 600,
		Scenario:   "10s-30z-400c-200cp",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar of the repair subsystem: time-averaged quality
	// within 2% of full-resolve mode, with strictly fewer zone handoffs.
	if res.Repair.MeanPQoS.Mean() < res.Full.MeanPQoS.Mean()-0.02 {
		t.Fatalf("repair pQoS %.3f trails full-resolve %.3f by more than 0.02",
			res.Repair.MeanPQoS.Mean(), res.Full.MeanPQoS.Mean())
	}
	if res.Repair.ZoneHandoffs.Mean() >= res.Full.ZoneHandoffs.Mean() {
		t.Fatalf("repair handed off %.1f zones/run, full-resolve %.1f — want strictly fewer",
			res.Repair.ZoneHandoffs.Mean(), res.Full.ZoneHandoffs.Mean())
	}
	if res.Repair.FullSolves.Mean() >= res.Full.FullSolves.Mean() {
		t.Fatalf("repair ran %.1f full solves/run, full-resolve %.1f",
			res.Repair.FullSolves.Mean(), res.Full.FullSolves.Mean())
	}
	if !strings.Contains(res.String(), "Repair") {
		t.Fatal("rendering broken")
	}
}

// TestTrafficSmoke is the traffic objective's acceptance bar (DESIGN.md
// §15): on the mobility-driven workload, traffic-aware assignment must
// remove at least 25% of the measured cross-server traffic while holding
// time-averaged pQoS within 0.01 of the delay-only baseline.
func TestTrafficSmoke(t *testing.T) {
	s := smokeSetup()
	s.Reps = 2
	res, err := Traffic(s, TrafficOptions{HorizonSec: 450})
	if err != nil {
		t.Fatal(err)
	}
	if red := res.Reduction(); red < 0.25 {
		t.Fatalf("traffic-aware removed only %.1f%% of cross-server traffic, want >= 25%%\n%s",
			100*red, res)
	}
	if d := res.PQoSDelta(); d < -0.01 {
		t.Fatalf("traffic-aware pQoS trails delay-only by %.4f, want within 0.01\n%s", -d, res)
	}
	if res.DelayOnly.BroadcastMbps.Mean() <= 0 {
		t.Fatal("delay-only arm measured no broadcast traffic: the crossing feedback path is dead")
	}
	// The delay-only arm's cut is still observable (TrafficCut reports the
	// canonical cut with the term off), and most of a 20-server fleet's
	// random hosting is cross-server.
	if f := res.DelayOnly.CrossHandoffFrac.Mean(); f < 0.5 {
		t.Fatalf("delay-only cross-handoff fraction %.2f, want > 0.5", f)
	}
	out := res.String()
	if !strings.Contains(out, "delay-only") || !strings.Contains(out, "traffic-aware") {
		t.Fatalf("rendering broken:\n%s", out)
	}
}

// TestTrafficJSONShape checks the BENCH_traffic.json document.
func TestTrafficJSONShape(t *testing.T) {
	s := smokeSetup()
	s.Reps = 1
	var buf bytes.Buffer
	res, err := Traffic(s, TrafficOptions{
		HorizonSec: 120,
		Scenario:   "8s-16z-200c-200cp",
		JSONOut:    &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Description  string             `json:"description"`
		HorizonSec   float64            `json:"horizon_sec"`
		Weight       float64            `json:"traffic_weight"`
		Reduction    float64            `json:"cross_traffic_reduction"`
		PQoSDelta    float64            `json:"pqos_delta"`
		DelayOnly    map[string]float64 `json:"delay_only"`
		TrafficAware map[string]float64 `json:"traffic_aware"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("BENCH_traffic.json does not parse: %v", err)
	}
	if doc.HorizonSec != 120 || doc.Weight != 2 {
		t.Fatalf("doc header %v/%v", doc.HorizonSec, doc.Weight)
	}
	if doc.Reduction != res.Reduction() || doc.PQoSDelta != res.PQoSDelta() {
		t.Fatal("doc summary diverges from the result")
	}
	for _, m := range []map[string]float64{doc.DelayOnly, doc.TrafficAware} {
		for _, k := range []string{"cross_server_traffic_mbps", "broadcast_mbps", "cross_handoff_frac", "time_avg_pqos", "zone_handoffs_per_run"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("doc missing %q", k)
			}
		}
	}
}

// TestTrafficTraceDeterministicAcrossWorkers replays one arm's full
// mobility trace at workers 1 and 4 and compares the per-tick digest —
// zone populations, interaction edge weights and zone hosting folded over
// every tick — plus the final measurements. Bit-identical or bust: the
// evaluator's sharded scans must not change a single decision.
func TestTrafficTraceDeterministicAcrossWorkers(t *testing.T) {
	setup := smokeSetup().withDefaults()
	opt := TrafficOptions{HorizonSec: 180, Scenario: "8s-16z-200c-200cp"}.withDefaults()
	cfg, err := dve.ParseScenario(dve.DefaultConfig(), opt.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0, opt.Weight} {
		var got [2]trafficArm
		for i, workers := range []int{1, 4} {
			o := opt
			o.Workers = workers
			arm, err := runTrafficArm(setup, o, cfg, lambda, 11, 22, 33)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = arm
		}
		if got[0] != got[1] {
			t.Fatalf("λ=%g trace diverges across workers:\n  w1: %+v\n  w4: %+v", lambda, got[0], got[1])
		}
		if got[0].digest == fnvOffset {
			t.Fatalf("λ=%g digest never folded a tick", lambda)
		}
	}
}
