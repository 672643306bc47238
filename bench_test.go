package dvecap

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per artefact, reduced replication counts so the
// suite completes in minutes — use cmd/capsim -reps 50 for paper-scale
// statistics) plus micro-benchmarks of the individual components.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable1 -benchtime=3x

import (
	"strconv"
	"testing"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/experiments"
	"dvecap/internal/lp"
	"dvecap/internal/milp"
	"dvecap/internal/repair"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

func benchSetup(reps int) experiments.Setup {
	s := experiments.DefaultSetup()
	s.Reps = reps
	return s
}

// BenchmarkTable1 regenerates Table 1 (pQoS/R across four configurations,
// heuristics only; see BenchmarkTable1Exact for the lp_solve column).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchSetup(2), experiments.Table1Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable1Exact regenerates Table 1's lp_solve column on the
// smallest configuration.
func BenchmarkTable1Exact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchSetup(1), experiments.Table1Options{
			IncludeLP:  true,
			LPReps:     1,
			LPDeadline: 30 * time.Second,
			Scenarios:  []string{"5s-15z-200c-100cp"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].LP == nil {
			b.Fatal("missing LP cell")
		}
	}
}

// BenchmarkFig4 regenerates Figure 4 (CDF of client→target delays on the
// largest configuration).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchSetup(2), experiments.Fig4Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 4 {
			b.Fatal("wrong series count")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5 (pQoS and R vs correlation δ,
// D = 200 ms).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchSetup(2), experiments.Fig5Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != 6 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (pQoS and R vs the four distribution
// types of Table 2).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchSetup(2), experiments.Fig6Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != 4 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (pQoS before churn, after 200 joins +
// 200 leaves + 200 moves, and after re-execution).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchSetup(2), experiments.Table3Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (pQoS/R with King and IDMaps
// estimation error).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchSetup(2), experiments.Table4Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Columns) != 2 {
			b.Fatal("wrong column count")
		}
	}
}

// BenchmarkAblation runs the extension study (static vs dynamic regret,
// ± local search).
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(benchSetup(1), experiments.AblationOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkRuntimeTable reproduces the §4.2 runtime comparison (heuristics
// only; the exact solver's own cost is BenchmarkExactIAP/RAP).
func BenchmarkRuntimeTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Runtime(benchSetup(1), experiments.RuntimeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks -----------------------------------------------------

// benchProblem builds the paper-default problem once per benchmark.
func benchProblem(b *testing.B, notation string) *core.Problem {
	b.Helper()
	rng := xrand.New(77)
	g, err := topology.Hier(rng.Split(), topology.DefaultHier())
	if err != nil {
		b.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := dve.ParseScenario(dve.DefaultConfig(), notation)
	if err != nil {
		b.Fatal(err)
	}
	world, err := dve.BuildWorld(rng.Split(), cfg, g, dm)
	if err != nil {
		b.Fatal(err)
	}
	return world.Problem()
}

// BenchmarkGreZ measures the greedy zone assignment on the default
// configuration (80 zones × 20 servers, 1000 clients).
func BenchmarkGreZ(b *testing.B) {
	p := benchProblem(b, "20s-80z-1000c-500cp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreZ(nil, p, core.Options{Overflow: core.SpillLargestResidual}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreZDynamic measures the recomputing ablation variant.
func BenchmarkGreZDynamic(b *testing.B) {
	p := benchProblem(b, "20s-80z-1000c-500cp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreZDynamic(nil, p, core.Options{Overflow: core.SpillLargestResidual}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRanZ measures the random zone assignment.
func BenchmarkRanZ(b *testing.B) {
	p := benchProblem(b, "20s-80z-1000c-500cp")
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RanZ(rng, p, core.Options{Overflow: core.SpillLargestResidual}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreC measures the greedy refined assignment given a GreZ initial
// assignment: as provisioned (about a quarter of the late clients go past
// their two kept candidates), and starved — every server filled to the
// brim by its zones, so no candidate ever accepts and every late client
// whose target is not one of its two pays the second µ row and the arg-max
// of the third choice. That is GreC's worst case; late-clients and
// rebuilds (third choices) are reported beside the time.
func BenchmarkGreC(b *testing.B) {
	p := benchProblem(b, "20s-80z-1000c-500cp")
	target, err := core.GreZ(nil, p, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		b.Fatal(err)
	}
	starved := p.Clone()
	for i := range starved.ServerCaps {
		starved.ServerCaps[i] = 0
	}
	for z, rt := range starved.ZoneRT() {
		starved.ServerCaps[target[z]] += rt
	}
	for _, tc := range []struct {
		name string
		p    *core.Problem
	}{{"provisioned", p}, {"starved", starved}} {
		b.Run(tc.name, func(b *testing.B) {
			opt := core.Options{Scratch: core.NewWorkspace()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.GreC(nil, tc.p, target, opt); err != nil {
					b.Fatal(err)
				}
			}
			late, rebuilds := opt.Scratch.GreCCounts()
			b.ReportMetric(float64(late), "late-clients")
			b.ReportMetric(float64(rebuilds), "rebuilds")
		})
	}
}

// BenchmarkTwoPhaseLargest measures the full GreZ-GreC pipeline on the
// paper's largest configuration (160 zones × 30 servers, 2000 clients) —
// the "< 1 second" claim of §4.2.
func BenchmarkTwoPhaseLargest(b *testing.B) {
	p := benchProblem(b, "30s-160z-2000c-1000cp")
	rng := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreZGreC.Solve(rng, p, core.Options{Overflow: core.SpillLargestResidual}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures metric computation on the default problem.
func BenchmarkEvaluate(b *testing.B) {
	p := benchProblem(b, "20s-80z-1000c-500cp")
	a, err := core.GreZGreC.Solve(xrand.New(1), p, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Evaluate(p, a)
	}
}

// --- churn-scale local search ---------------------------------------------

// largeProblem builds the churn-scale scenario the incremental evaluator
// exists for: 50 servers, 500 zones, 100 000 clients, plane-embedded (the
// paper's 500-node substrate cannot express this size). Servers and zone
// centres are uniform in the unit square; clients scatter around their
// zone's centre.
func largeProblem(b *testing.B) *core.Problem {
	b.Helper()
	return planeProblem(b, 50, 500, 100_000)
}

// fleetProblem is the plane-embedded instance at elastic-fleet scale —
// twice largeProblem's fleet (100 servers, 1000 zones), same 100 000
// clients — the shape the live-topology benchmarks run on: capacity
// add/drain/remove events matter most on fleets large enough that a
// stop-the-world re-solve is expensive.
func fleetProblem(b *testing.B) *core.Problem {
	b.Helper()
	return planeProblem(b, 100, 1000, 100_000)
}

// planeProblem embeds m servers, n zone centres and k clients in the unit
// square (seed 271) and derives all delays from squared plane distance.
func planeProblem(b *testing.B, m, n, k int) *core.Problem {
	b.Helper()
	rng := xrand.New(271)
	sx := make([]float64, m)
	sy := make([]float64, m)
	for i := range sx {
		sx[i], sy[i] = rng.Float64(), rng.Float64()
	}
	zx := make([]float64, n)
	zy := make([]float64, n)
	for z := range zx {
		zx[z], zy[z] = rng.Float64(), rng.Float64()
	}
	p := &core.Problem{
		ServerCaps:  make([]float64, m),
		ClientZones: make([]int, k),
		NumZones:    n,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           150,
	}
	rtt := func(dx, dy float64) float64 { return 20 + 450*(dx*dx+dy*dy) }
	csFlat := make([]float64, k*m)
	var totalRT float64
	for j := 0; j < k; j++ {
		z := rng.IntN(n)
		p.ClientZones[j] = z
		cx := zx[z] + rng.Norm(0, 0.08)
		cy := zy[z] + rng.Norm(0, 0.08)
		p.ClientRT[j] = rng.Uniform(0.1, 0.3)
		totalRT += p.ClientRT[j]
		p.CS[j], csFlat = csFlat[:m], csFlat[m:]
		for i := 0; i < m; i++ {
			p.CS[j][i] = rtt(cx-sx[i], cy-sy[i])
		}
	}
	ssFlat := make([]float64, m*m)
	for i := 0; i < m; i++ {
		p.SS[i], ssFlat = ssFlat[:m], ssFlat[m:]
		for l := 0; l < m; l++ {
			if l != i {
				p.SS[i][l] = 0.5 * rtt(sx[i]-sx[l], sy[i]-sy[l])
			}
		}
	}
	for i := 0; i < m; i++ {
		p.ServerCaps[i] = 1.5 * totalRT / float64(m) * rng.Uniform(0.9, 1.1)
	}
	return p
}

// largeStart gives the search a deliberately mediocre start (delay-oblivious
// RanZ-VirC), so there are improving moves to find.
func largeStart(b *testing.B, p *core.Problem) *core.Assignment {
	b.Helper()
	a, err := core.RanZVirC.Solve(xrand.New(7), p, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkLocalSearch measures the incremental-delta local search on the
// churn-scale scenario (50 servers / 500 zones / 100k clients). The
// clone-and-rescore oracle it replaced is benchmarked on the identical
// shape by BenchmarkOracleLargeLocalSearch in internal/core (one iteration
// of it takes minutes); BENCH_localsearch.json records the measured
// baseline of both.
func BenchmarkLocalSearch(b *testing.B) {
	p := largeProblem(b)
	a := largeStart(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LocalSearch(p, a, 3)
	}
}

// BenchmarkEvaluator measures incremental move application on the
// churn-scale scenario: a zone move pair (there and back) plus a contact
// switch pair per iteration, all in reused state — zero allocations.
func BenchmarkEvaluator(b *testing.B) {
	p := largeProblem(b)
	a := largeStart(b, p)
	ev := core.NewEvaluator(p, a)
	z := 0
	home := ev.Assignment().ZoneServer[z]
	other := (home + 1) % p.NumServers()
	tgt := home
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.ApplyZoneMove(z, other)
		ev.ApplyZoneMove(z, home)
		ev.ApplyContactSwitch(0, other)
		ev.ApplyContactSwitch(0, tgt)
	}
}

// BenchmarkEvaluatorReset measures rebinding a reused evaluator to the
// churn-scale problem — the fixed cost one re-optimisation cycle pays.
func BenchmarkEvaluatorReset(b *testing.B) {
	p := largeProblem(b)
	a := largeStart(b, p)
	ev := core.NewEvaluator(p, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Reset(p, a)
	}
}

// --- churn repair ----------------------------------------------------------

// benchRepairPlanner builds the repair planner on the churn-scale scenario
// with a GreZ-GreC start, plus the live indices events draw from.
func benchRepairPlanner(b *testing.B, p *core.Problem) (*repair.Planner, []int) {
	b.Helper()
	a, err := core.GreZGreC.Solve(xrand.New(7), p, core.Options{Overflow: core.SpillLargestResidual})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := repair.NewWithAssignment(repair.Config{
		Algo: core.GreZGreC,
		Opt:  core.Options{Overflow: core.SpillLargestResidual, Scratch: core.NewWorkspace()},
	}, p, a, xrand.New(91))
	if err != nil {
		b.Fatal(err)
	}
	live := make([]int, p.NumClients())
	for h := range live {
		live[h] = h
	}
	return pl, live
}

// repairEvent applies the i-th synthetic churn event: a join (cloning an
// existing client's placement, matching the scenario's distribution), a
// leave, or a zone move, cycling through the three. src supplies placement
// data and must be the pristine problem the planner was built from.
func repairEvent(b *testing.B, pl *repair.Planner, live *[]int, src *core.Problem, rng *xrand.RNG, i int) {
	b.Helper()
	switch i % 3 {
	case 0:
		tpl := rng.IntN(src.NumClients())
		h, err := pl.Join(src.ClientZones[tpl], src.ClientRT[tpl], src.CS[tpl])
		if err != nil {
			b.Fatal(err)
		}
		*live = append(*live, h)
	case 1:
		l := *live
		pos := rng.IntN(len(l))
		if _, err := pl.Leave(l[pos]); err != nil {
			b.Fatal(err)
		}
		// The last client took the vacated index.
		*live = l[:len(l)-1]
	default:
		l := *live
		if err := pl.Move(l[rng.IntN(len(l))], rng.IntN(src.NumZones)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepair measures one churn event — join, leave or zone move —
// repaired incrementally on the churn-scale scenario (50 servers / 500
// zones / 100k clients): the planner's O(affected) path. Compare
// BenchmarkRepairFullResolve, the paper's §3.4 full re-execution on the
// same event stream; BENCH_repair.json records the measured gap.
func BenchmarkRepair(b *testing.B) {
	p := largeProblem(b)
	pl, live := benchRepairPlanner(b, p)
	rng := xrand.New(23)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repairEvent(b, pl, &live, p, rng, i)
	}
}

// BenchmarkRepairTelemetry measures the instrumentation tax on the hot
// repair path: the identical churn-event stream with telemetry detached
// ("off") and with a live registry attached ("on" — per-event counters,
// latency histograms and quality gauges all recording). The tax is a fixed
// ≈ 0.3 µs per event — 2% of the 100 µs event the budget was written for,
// ≈ 15% of the 2.3 µs event since rows are maintained under churn:
// BENCH_observability.json records the measured gap, and DESIGN.md §12
// states the commitment in absolute terms.
func BenchmarkRepairTelemetry(b *testing.B) {
	p := largeProblem(b)
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run("telemetry="+name, func(b *testing.B) {
			pl, live := benchRepairPlanner(b, p)
			if on {
				pl.SetTelemetry(telemetry.NewRegistry())
			}
			rng := xrand.New(23)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repairEvent(b, pl, &live, p, rng, i)
			}
		})
	}
}

// BenchmarkRepairFullResolve applies the identical event stream but
// answers every event with a full two-phase re-solve of the whole problem
// — the baseline the repair subsystem replaces.
func BenchmarkRepairFullResolve(b *testing.B) {
	p := largeProblem(b)
	pl, live := benchRepairPlanner(b, p)
	rng := xrand.New(23)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repairEvent(b, pl, &live, p, rng, i)
		if err := pl.FullSolve(); err != nil {
			b.Fatal(err)
		}
	}
}

// coordProblem is largeProblem with its delays behind the coordinate
// provider: every client keeps six measured servers of its dense row as
// overrides and a coordinate fitted to them, and reads the other 44 as
// predictions — the coordinate-native shape of DESIGN.md §13.
func coordProblem(b *testing.B) *core.Problem {
	b.Helper()
	p := largeProblem(b)
	cp := core.NewCoordProviderFromSS(p.SS, 0)
	rng := xrand.New(272)
	m := p.NumServers()
	srvs := make([]int32, 6)
	vals := make([]float64, 6)
	for _, row := range p.CS {
		for x, i := range rng.SampleWithout(m, len(srvs)) {
			srvs[x], vals[x] = int32(i), row[i]
		}
		cp.AddClientFitted(srvs, vals)
	}
	p.CS, p.Delays = nil, cp
	return p
}

// BenchmarkFullSolve100k measures one full GreZ-GreC solve on the
// churn-scale scenario (50 servers / 500 zones / 100k clients) with a warm
// workspace, on the raw matrix and through the coordinate provider — the
// O(population) stall a re-solve costs, and (B/op) the proof that a solve
// with Options.Scratch allocates nothing beyond the assignment it returns.
func BenchmarkFullSolve100k(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func(*testing.B) *core.Problem
	}{{"dense", largeProblem}, {"coord", coordProblem}} {
		b.Run(tc.name, func(b *testing.B) {
			p := tc.build(b)
			opt := core.Options{Overflow: core.SpillLargestResidual, Scratch: core.NewWorkspace()}
			rng := xrand.New(7)
			if _, err := core.GreZGreC.Solve(rng, p, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.GreZGreC.Solve(rng, p, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			late, rebuilds := opt.Scratch.GreCCounts()
			b.ReportMetric(float64(late), "late-clients")
			b.ReportMetric(float64(rebuilds), "rebuilds")
		})
	}
}

// BenchmarkClusterSolve100k measures a repeated Cluster.Solve on a
// coordinate-native 100k-client, 50-server cluster. One untimed solve
// fills the cluster's late index. Every timed solve after it builds the
// cost matrix and GreC's first pass from the index and reuses every late
// client's kept choices, so it reads a delay row only for a third choice;
// BenchmarkFullSolve100k's coord leg reads all of them.
func BenchmarkClusterSolve100k(b *testing.B) {
	c := buildCoordCluster(b, xrand.New(1), 50, 500, 100_000)
	opts := []Option{WithSeed(1), WithDelayProvider(CoordDelays)}
	if _, err := c.Solve("GreZ-GreC", opts...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Solve("GreZ-GreC", opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionResolve100k measures ClusterSession.Resolve() — a live
// session's full two-phase re-solve, the stall every lookup queues behind —
// on the churn-scale scenario after 1 000 mixed events (joins with full
// measured rows, leaves, zone moves), on the raw matrix and coordinate-native.
// The cost matrix and GreC's late list come from the late index the opening
// solve filled (internal/core/lateindex.go); BenchmarkFullSolve100k, a
// one-shot solve of the same problems, reads every client's delay row. The
// warm leg re-solves an unchanged session, so GreC reuses every late
// client's kept choice from the index; the churned leg applies 1 000 more
// mixed events, untimed, before each timed Resolve(), so GreC reads the rows
// of the late clients those events wrote or re-targeted (late-rows-read/op,
// of late-clients/op).
func BenchmarkSessionResolve100k(b *testing.B) {
	forChurnedSessions100k(b, func(b *testing.B, s *ClusterSession, rng *xrand.RNG) {
		reg := telemetry.NewRegistry()
		s.planner().SetTelemetry(reg)
		late := reg.Counter("dvecap_solve_late_clients_total", "")
		rowsRead := reg.Counter("dvecap_solve_late_rows_read_total", "")
		next := 1000 // the events forChurnedSessions100k applied
		for _, churned := range []bool{false, true} {
			name := "warm"
			if churned {
				name = "churned"
			}
			b.Run(name, func(b *testing.B) {
				lateBefore, readBefore := late.Value(), rowsRead.Value()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if churned {
						b.StopTimer()
						churnSession(b, s, rng, &next, 1000)
						b.StartTimer()
					}
					if err := s.Resolve(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(late.Value()-lateBefore)/float64(b.N), "late-clients/op")
				b.ReportMetric(float64(rowsRead.Value()-readBefore)/float64(b.N), "late-rows-read/op")
			})
		}
	})
}

// BenchmarkSessionAudit100k times Machine.Audit — the derived-state
// contract, rebuilding every clean candidate-delta row and every late bit —
// on BenchmarkSessionResolve100k's sessions after their first Resolve, the
// state its warm leg re-solves from.
func BenchmarkSessionAudit100k(b *testing.B) {
	forChurnedSessions100k(b, func(b *testing.B, s *ClusterSession, _ *xrand.RNG) {
		if err := s.Resolve(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.m.Audit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// churnSession applies n more mixed events to a session forChurnedSessions100k
// opened, numbered on from *next: in turn a join with the full delay row of
// a random client of c0..c49999, a leave of the client that joined 1 000
// events earlier (so the population holds still) and a zone move of a
// random client of c0..c49999.
func churnSession(b *testing.B, s *ClusterSession, rng *xrand.RNG, next *int, n int) {
	b.Helper()
	p := s.planner().Problem()
	zones := s.ZoneIDs()
	for x := 0; x < n; x++ {
		e := *next
		*next++
		var err error
		switch e % 3 {
		case 0:
			j := rng.IntN(50_000)
			row := make([]float64, p.NumServers())
			p.CopyCSRow(j, row)
			err = s.Join("n"+strconv.Itoa(e), ClientSpec{Zone: zones[p.ClientZones[j]], BandwidthMbps: p.ClientRT[j], RTTRow: row})
		case 1:
			err = s.Leave("n" + strconv.Itoa(e-1000))
		default:
			err = s.Move("c"+strconv.Itoa(rng.IntN(50_000)), zones[rng.IntN(len(zones))])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionJoin100k measures ClusterSession.Join of a client with a
// full measured row on the churn-scale scenario, on the raw matrix (the
// control) and coordinate-native. Each joiner leaves again outside the
// timer, so the population holds still. A fully measured joiner reads only
// its overrides, so the coordinate provider leaves its coordinate unfitted
// until something could observe it (DESIGN.md §13) and the join costs
// O(servers), as on the raw matrix.
func BenchmarkSessionJoin100k(b *testing.B) {
	forChurnedSessions100k(b, func(b *testing.B, s *ClusterSession, rng *xrand.RNG) {
		p := s.planner().Problem()
		zones := s.ZoneIDs()
		specs := make([]ClientSpec, 64)
		for x := range specs {
			j := rng.IntN(50_000)
			row := make([]float64, p.NumServers())
			p.CopyCSRow(j, row)
			specs[x] = ClientSpec{Zone: zones[p.ClientZones[j]], BandwidthMbps: p.ClientRT[j], RTTRow: row}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := "j" + strconv.Itoa(i)
			if err := s.Join(id, specs[i%len(specs)]); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.Leave(id); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkSessionEventsAfterResolve100k measures what a re-solve costs the
// events that FOLLOW it: per iteration one Resolve() (untimed) and then 500
// single zone moves, timed — the mean event, first touches of rehosted zones
// included, where BenchmarkRepair and write_p50_ms see the warm median. The
// re-solve is adopted (core.Evaluator.Adopt): zones that keep their host
// keep their candidate-delta row and rehosted ones have theirs rebased, so
// nearly all of the 500 fold a warm row (rebuilt-rows/op counts the ones
// that do not); when every row was invalidated, most rebuilt one in
// O(servers × clients of the zone).
func BenchmarkSessionEventsAfterResolve100k(b *testing.B) {
	forChurnedSessions100k(b, func(b *testing.B, s *ClusterSession, rng *xrand.RNG) {
		const events = 500
		zones := s.ZoneIDs()
		reg := telemetry.NewRegistry()
		s.planner().SetTelemetry(reg)
		rebuilt := reg.Counter("dvecap_cache_row_refreshes_total", "")
		b.ReportAllocs()
		b.ResetTimer()
		before := rebuilt.Value()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := s.Resolve(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for e := 0; e < events; e++ {
				if err := s.Move("c"+strconv.Itoa(rng.IntN(50_000)), zones[rng.IntN(len(zones))]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		b.ReportMetric(float64(rebuilt.Value()-before)/float64(b.N), "rebuilt-rows/op")
	})
}

// forChurnedSessions100k runs f as a sub-benchmark on the churn-scale
// scenario opened as a live session — on the raw matrix and coordinate-native
// — after 1 000 mixed events (joins with full measured rows, leaves, zone
// moves). Clients c0..c49999 are never removed.
func forChurnedSessions100k(b *testing.B, f func(b *testing.B, s *ClusterSession, rng *xrand.RNG)) {
	src := largeProblem(b)
	for _, tc := range []struct {
		name  string
		build func(*testing.B) *core.Problem
	}{{"dense", func(*testing.B) *core.Problem { return src }}, {"coord", coordProblem}} { // Open clones
		b.Run(tc.name, func(b *testing.B) {
			s := sessionOverProblem(b, tc.build(b), 7)
			var err error
			rng := xrand.New(23)
			zones := s.ZoneIDs()
			for e := 0; e < 1000; e++ {
				switch e % 3 {
				case 0:
					tpl := rng.IntN(src.NumClients())
					err = s.Join("n"+strconv.Itoa(e), ClientSpec{
						Zone: zones[src.ClientZones[tpl]], BandwidthMbps: src.ClientRT[tpl], RTTRow: src.CS[tpl]})
				case 1:
					err = s.Leave("c" + strconv.Itoa(50_000+e))
				default:
					err = s.Move("c"+strconv.Itoa(rng.IntN(50_000)), zones[rng.IntN(len(zones))])
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			f(b, s, rng)
		})
	}
}

// sessionOverProblem opens a GreZ-GreC session straight over a prebuilt
// problem — a provider-backed one included, whose fitted coordinates the
// builder has no spec for — under the IDs "s0"…, "z0"…, "c0"…, the way
// Cluster.Open assembles one.
func sessionOverProblem(b *testing.B, p *core.Problem, seed uint64) *ClusterSession {
	b.Helper()
	pl, err := repair.New(repair.Config{
		Algo: core.GreZGreC,
		Opt:  core.Options{Overflow: core.SpillLargestResidual},
	}, p, xrand.New(seed).Split())
	if err != nil {
		b.Fatal(err)
	}
	names := func(prefix string, n int) []string {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = prefix + strconv.Itoa(i)
		}
		return ids
	}
	binding, err := repair.NewIDBinding(pl, names("c", p.NumClients()))
	if err != nil {
		b.Fatal(err)
	}
	if err := binding.NameTopology(names("s", p.NumServers()), names("z", p.NumZones)); err != nil {
		b.Fatal(err)
	}
	m, err := repair.NewMachine(binding, "GreZ-GreC", int(SpillLargestResidual), nil)
	if err != nil {
		b.Fatal(err)
	}
	return &ClusterSession{m: m, binding: binding}
}

// BenchmarkExactIAP measures the branch-and-bound on the smallest
// configuration's initial assignment (Table 1's lp_solve, first row).
func BenchmarkExactIAP(b *testing.B) {
	p := benchProblem(b, "5s-15z-200c-100cp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := milp.SolveIAP(p, milp.SolverOptions{Deadline: 30 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierTopology measures generating the paper's 500-node topology.
func BenchmarkHierTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := topology.Hier(xrand.New(uint64(i)), topology.DefaultHier()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllPairsShortest measures the parallel APSP over 500 nodes.
func BenchmarkAllPairsShortest(b *testing.B) {
	g, err := topology.Hier(xrand.New(9), topology.DefaultHier())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairsShortest()
	}
}

// BenchmarkWorldBuild measures placing the default 1000-client world.
func BenchmarkWorldBuild(b *testing.B) {
	rng := xrand.New(11)
	g, err := topology.Hier(rng.Split(), topology.DefaultHier())
	if err != nil {
		b.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dve.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dve.BuildWorld(rng.Split(), cfg, g, dm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplex measures the LP solver on a representative IAP
// relaxation (5 servers × 15 zones).
func BenchmarkSimplex(b *testing.B) {
	p := benchProblem(b, "5s-15z-200c-100cp")
	prob := milp.BuildIAP(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lp.Solve(prob)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != lp.Optimal {
			b.Fatalf("status %v", res.Status)
		}
	}
}

// BenchmarkFacadeAssign measures the end-to-end public API path (scenario
// construction amortised outside the loop).
func BenchmarkFacadeAssign(b *testing.B) {
	scn, err := NewScenario(ScenarioParams{Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scn.Assign("GreZ-GreC"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines runs the related-work comparison (extension).
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Baselines(benchSetup(1), experiments.BaselinesOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Names) != 5 {
			b.Fatal("wrong baseline count")
		}
	}
}

// BenchmarkStaleness runs the reassignment-period sweep (extension).
func BenchmarkStaleness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Staleness(benchSetup(1), experiments.StalenessOptions{
			Periods:    []float64{60, 300},
			HorizonSec: 600,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != 2 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkRobustness runs the cross-topology check (extension).
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Robustness(benchSetup(1), experiments.RobustnessOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFlowCheck runs the flow-level validation (extension).
func BenchmarkFlowCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FlowCheck(benchSetup(1), experiments.FlowCheckOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// --- live topology ----------------------------------------------------------

// topoTemplate snapshots server 0's profile — capacity, inter-server
// delay row, per-client delay column — from the planner's live problem.
// The capacity cycle clones server 0, drains the original and removes it;
// the swap-remove renumbers the clone into index 0 with an identical
// profile, so ONE template prepared up front serves every iteration (the
// template is the event's input: a real deployment gets it from probes,
// so its construction is not part of the event cost).
func topoTemplate(pl *repair.Planner) (cap0 float64, ss, col []float64) {
	p := pl.Problem()
	ss = append([]float64(nil), p.SS[0]...)
	col = make([]float64, p.NumClients())
	for j := range col {
		col[j] = p.CSAt(j, 0)
	}
	return p.ServerCaps[0], ss, col
}

// topoCycle applies one add+drain+remove capacity cycle on the live
// planner, in steady state: a clone of server 0 (identical delay profile,
// identical capacity) joins the fleet, server 0 drains — its ~n/m zones
// evacuate, mostly onto the fresh clone — and is removed; the swap-remove
// renumbers the clone into index 0, so every iteration sees the same
// topology.
func topoCycle(b *testing.B, pl *repair.Planner, cap0 float64, ss, col []float64) {
	b.Helper()
	if _, err := pl.AddServer(cap0, ss, col); err != nil {
		b.Fatal(err)
	}
	if err := pl.DrainServer(0); err != nil {
		b.Fatal(err)
	}
	if _, err := pl.RemoveServer(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTopologyChurn measures one full capacity-churn cycle — server
// add, drain (zone evacuation + contact re-greedy + seeded repair) and
// remove — on the elastic-fleet scenario (100 servers / 1000 zones / 100k
// clients). Per-event cost is ns/op ÷ 3; the server add and remove are
// memory-bandwidth-bound at O(clients) (every client's delay row gains or
// compacts one column — the event input itself is a 100k-entry column),
// the drain is O(zones-and-clients-of-the-server). Compare
// BenchmarkTopologyChurnFullResolve, which answers each of the three
// topology events with a full two-phase re-solve (§3.4's prescription);
// BENCH_topology.json records the measured gap.
func BenchmarkTopologyChurn(b *testing.B) {
	pl, _ := benchRepairPlanner(b, fleetProblem(b))
	cap0, ss, col := topoTemplate(pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topoCycle(b, pl, cap0, ss, col)
	}
}

// BenchmarkTopologyChurnFullResolve applies the identical capacity cycle
// but re-runs the full two-phase algorithm after each of the three
// topology events — the stop-the-world baseline live topology replaces.
func BenchmarkTopologyChurnFullResolve(b *testing.B) {
	pl, _ := benchRepairPlanner(b, fleetProblem(b))
	cap0, ss, col := topoTemplate(pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.AddServer(cap0, ss, col); err != nil {
			b.Fatal(err)
		}
		if err := pl.FullSolve(); err != nil {
			b.Fatal(err)
		}
		if err := pl.DrainServer(0); err != nil {
			b.Fatal(err)
		}
		if err := pl.FullSolve(); err != nil {
			b.Fatal(err)
		}
		if _, err := pl.RemoveServer(0); err != nil {
			b.Fatal(err)
		}
		if err := pl.FullSolve(); err != nil {
			b.Fatal(err)
		}
	}
}

// batchCrowd drafts a 100-client flash crowd pouring into ONE hot zone
// (the flash-crowd shape: an event draws everyone to the same shard),
// cloning placement data from random incumbents.
func batchCrowd(p *core.Problem) (zones []int, rts []float64, css [][]float64) {
	const crowd = 100
	rng := xrand.New(37)
	hot := p.ClientZones[0]
	zones = make([]int, crowd)
	rts = make([]float64, crowd)
	css = make([][]float64, crowd)
	for x := 0; x < crowd; x++ {
		tpl := rng.IntN(p.NumClients())
		zones[x], rts[x], css[x] = hot, p.ClientRT[tpl], p.CS[tpl]
	}
	return zones, rts, css
}

// BenchmarkBatchJoin measures a 100-client flash crowd into one hot zone
// admitted as ONE JoinBatch event: memberships first, then a single
// seeded scan over the touched zone, instead of one scan per client.
// Compare BenchmarkBatchJoinAsSingles — the identical crowd as 100
// separate Join events, each with its own repair pass. (The leaves that
// restore steady state run outside the timer in both.)
func BenchmarkBatchJoin(b *testing.B) {
	p := largeProblem(b)
	pl, _ := benchRepairPlanner(b, p)
	zones, rts, css := batchCrowd(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.JoinBatch(zones, rts, css); err != nil {
			b.Fatal(err)
		}
		// The leaves only restore steady state; they cost the same in
		// both batch benchmarks and are excluded from the measurement.
		b.StopTimer()
		leaveLast(b, pl, len(zones))
		b.StartTimer()
	}
}

// BenchmarkBatchJoinAsSingles is the same flash crowd as 100 single Join
// events — the per-client repair passes JoinBatch coalesces.
func BenchmarkBatchJoinAsSingles(b *testing.B) {
	p := largeProblem(b)
	pl, _ := benchRepairPlanner(b, p)
	zones, rts, css := batchCrowd(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := range zones {
			if _, err := pl.Join(zones[x], rts[x], css[x]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		leaveLast(b, pl, len(zones))
		b.StartTimer()
	}
}

// leaveLast removes the planner's last n clients — a crowd that just
// joined — newest first, so no removal renumbers another.
func leaveLast(b *testing.B, pl *repair.Planner, n int) {
	for ; n > 0; n-- {
		if _, err := pl.Leave(pl.NumClients() - 1); err != nil {
			b.Fatal(err)
		}
	}
}
