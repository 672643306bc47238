package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"dvecap/internal/core"
	"dvecap/internal/dve"
	"dvecap/internal/interact"
	"dvecap/internal/metrics"
	"dvecap/internal/repair"
	"dvecap/internal/runner"
	"dvecap/internal/vworld"
	"dvecap/internal/xrand"
)

// TrafficOptions tunes the inter-server traffic comparison (DESIGN.md
// §15): a mobility-driven workload — avatars walking a zone grid under
// hotspot attraction and correlated group movement — produces zone
// crossings that both relocate clients (churn the repair planner consumes)
// and accumulate observed zone-interaction weights. Two arms run on
// identical world, mobility and solver seeds: delay-only (TrafficWeight 0,
// the paper's objective) and traffic-aware (the λ-weighted cut term in the
// search objective). The question: how much measured cross-server traffic
// — state broadcast across cut interaction edges plus cross-server avatar
// handoffs — does the traffic term remove, and what does it cost in pQoS
// and zone-rehosting disruption?
type TrafficOptions struct {
	// HorizonSec is the simulated duration per run (default 600).
	HorizonSec float64
	// WarmupSec is the observation window before measurement starts
	// (default HorizonSec/3): crossings accumulate interaction weights and
	// consolidation acts on them, but traffic and pQoS integrals only run
	// from here — the arms are compared in steady state, not during the
	// identical cold-start in which no observations exist yet.
	WarmupSec float64
	// TickSec is the mobility step (default 1).
	TickSec float64
	// Scenario defaults to 20s-80z-1000c-800cp — the paper's default world
	// with capacity headroom over the 500 Mbps baseline. Headroom matters:
	// the quadratic bandwidth model makes a hotspot zone consume most of a
	// tightly-provisioned server, which blocks co-hosting it with its
	// heavy-interaction neighbours and caps what any traffic term can save.
	Scenario string
	// Weight is the traffic-aware arm's λ (default 2; the delay-only arm
	// always runs λ = 0).
	Weight float64
	// CrossingMbps is the interaction weight one observed crossing
	// accumulates onto its (from, to) zone edge (default 0.05).
	CrossingMbps float64
	// HandoffMbits is the state-transfer volume one cross-server avatar
	// handoff costs (default 1; co-hosted crossings are free).
	HandoffMbits float64
	// OptimizeEverySec is the consolidation cadence: both arms run the same
	// periodic local-search passes, the traffic-aware one under the full
	// objective (default 15).
	OptimizeEverySec float64
	// OptimizeRounds is the pass count per cadence tick (default 6; each
	// round accepts at most one zone move, so this bounds moves per cadence).
	OptimizeRounds int
	// Workers configures the planner evaluator's worker count (default 1).
	// Results are bit-identical for every value; see
	// TestTrafficTraceDeterministicAcrossWorkers.
	Workers int
	// Mobility overrides the avatar model (Avatars is forced to the
	// scenario's client count). Default: speeds 5–15 u/s on a 100-unit zone
	// grid, 2 s mean pause, clients/10 movement groups at bias 0.85.
	Mobility *vworld.Config
	// JSONOut, when set, additionally receives the result as a
	// BENCH_traffic.json-shaped document.
	JSONOut io.Writer
}

func (o TrafficOptions) withDefaults() TrafficOptions {
	if o.HorizonSec == 0 {
		o.HorizonSec = 600
	}
	if o.WarmupSec == 0 {
		o.WarmupSec = o.HorizonSec / 3
	}
	if o.TickSec == 0 {
		o.TickSec = 1
	}
	if o.Scenario == "" {
		o.Scenario = "20s-80z-1000c-800cp"
	}
	if o.Weight == 0 {
		o.Weight = 2
	}
	if o.CrossingMbps == 0 {
		o.CrossingMbps = 0.05
	}
	if o.HandoffMbits == 0 {
		o.HandoffMbits = 1
	}
	if o.OptimizeEverySec == 0 {
		o.OptimizeEverySec = 15
	}
	if o.OptimizeRounds == 0 {
		o.OptimizeRounds = 6
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// mobility resolves the avatar model for a scenario.
func (o TrafficOptions) mobility(cfg dve.Config) vworld.Config {
	if o.Mobility != nil {
		m := *o.Mobility
		m.Avatars = cfg.Clients
		return m
	}
	groups := cfg.Clients / 10
	if groups < 1 {
		groups = 1
	}
	return vworld.Config{
		Avatars:      cfg.Clients,
		MinSpeed:     5,
		MaxSpeed:     15,
		PauseMeanSec: 2,
		// Four hotspots at the grid's quarter points: towns and quest hubs
		// that attract a third of all waypoints, concentrating interaction
		// weight on the zone pairs around them.
		HotZones:  quarterPoints(gridShape(cfg.Zones)),
		HotBias:   0.35,
		Groups:    groups,
		GroupBias: 0.85,
	}
}

// quarterPoints returns the zones at the four (¼,¼)…(¾,¾) grid positions
// (deduplicated on degenerate grids).
func quarterPoints(cols, rows int) []int {
	var out []int
	for _, rq := range [2]int{rows / 4, 3 * rows / 4} {
		for _, cq := range [2]int{cols / 4, 3 * cols / 4} {
			z := rq*cols + cq
			dup := false
			for _, have := range out {
				dup = dup || have == z
			}
			if !dup {
				out = append(out, z)
			}
		}
	}
	return out
}

// gridShape factors a zone count into the most-square Cols × Rows grid.
func gridShape(zones int) (cols, rows int) {
	rows = 1
	for r := int(math.Sqrt(float64(zones))); r >= 1; r-- {
		if zones%r == 0 {
			rows = r
			break
		}
	}
	return zones / rows, rows
}

// zoneSideUnits is the virtual-distance side length of one grid zone.
const zoneSideUnits = 100.0

// TrafficMode is one arm's aggregate outcome.
type TrafficMode struct {
	Name string
	// CrossTrafficMbps is the measured cross-server traffic rate:
	// time-averaged broadcast across cut interaction edges plus the
	// amortized cross-server handoff state transfers.
	CrossTrafficMbps metrics.Summary
	// BroadcastMbps is the broadcast component alone (time-averaged cut
	// weight of the observed interaction graph).
	BroadcastMbps metrics.Summary
	// CrossHandoffFrac is the fraction of zone crossings whose endpoint
	// zones were hosted on different servers at crossing time.
	CrossHandoffFrac metrics.Summary
	// TimeAvgPQoS integrates pQoS over the run.
	TimeAvgPQoS metrics.Summary
	// ZoneHandoffs counts zone rehostings per run — the disruption the
	// traffic term buys its savings with.
	ZoneHandoffs metrics.Summary
}

// TrafficResult is the two-arm comparison outcome.
type TrafficResult struct {
	DelayOnly    TrafficMode
	TrafficAware TrafficMode
	HorizonSec   float64
	Weight       float64
}

// trafficArm is one arm's single-run measurements. digest folds the
// per-tick zone populations, interaction edge weights and zone hosting
// into one FNV-1a value, so worker-count determinism is checkable over the
// whole trajectory, not just the end state.
type trafficArm struct {
	crossTrafficMbps float64
	broadcastMbps    float64
	crossHandoffFrac float64
	pqos             float64
	zoneHandoffs     int
	digest           uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// runTrafficArm drives one arm: the identical mobility trace (worldSeed,
// mobSeed, solveSeed fix everything but λ) through a repair planner's
// machine, feeding each crossing back as a move event plus an observed
// adjacency increment, with periodic traffic-aware consolidation.
func runTrafficArm(setup Setup, opt TrafficOptions, cfg dve.Config, lambda float64,
	worldSeed, mobSeed, solveSeed uint64) (trafficArm, error) {
	var res trafficArm
	world, err := setup.buildWorld(xrand.New(worldSeed), cfg)
	if err != nil {
		return res, err
	}
	cols, rows := gridShape(cfg.Zones)
	m, err := vworld.NewMap(float64(cols)*zoneSideUnits, float64(rows)*zoneSideUnits, cols, rows)
	if err != nil {
		return res, err
	}
	vw, err := vworld.NewWorld(xrand.New(mobSeed), m, opt.mobility(cfg))
	if err != nil {
		return res, err
	}
	// The avatars' initial zones replace the scenario's virtual placement:
	// client j is avatar j, in both the problem and the planner.
	if err := world.SetClientZones(vw.ZoneVector()); err != nil {
		return res, err
	}
	truth := world.Problem()
	truth.Adjacency = interact.New(cfg.Zones)
	truth.TrafficWeight = lambda
	srng := xrand.New(solveSeed)
	sopt := scratchOpts()
	sopt.Workers = opt.Workers
	// The interaction graph is empty at t=0, so the initial solve is
	// identical across arms regardless of λ.
	a, err := core.GreZGreC.Solve(srng.Split(), truth, sopt)
	if err != nil {
		return res, err
	}
	plOpt := solveOpts
	plOpt.Workers = opt.Workers
	pl, err := repair.NewWithAssignment(repair.Config{Algo: core.GreZGreC, Opt: plOpt}, truth, a, srng.Split())
	if err != nil {
		return res, err
	}
	// Churn reaches the planner as machine events; client j is "c<j>".
	mach, err := repair.NewIndexedMachine(pl, core.GreZGreC.Name)
	if err != nil {
		return res, err
	}
	b := mach.Binding()
	ids := b.DenseIDs()

	ticks := int(opt.HorizonSec/opt.TickSec + 0.5)
	warmTicks := int(opt.WarmupSec/opt.TickSec + 0.5)
	if warmTicks >= ticks {
		return res, fmt.Errorf("experiments: warmup %gs swallows the %gs horizon", opt.WarmupSec, opt.HorizonSec)
	}
	optEvery := int(opt.OptimizeEverySec/opt.TickSec + 0.5)
	if optEvery < 1 {
		optEvery = 1
	}
	measuredSec := float64(ticks-warmTicks) * opt.TickSec
	touched := make([]bool, cfg.Zones)
	var broadcastInt, pqosInt float64
	crossings, crossHandoffs := 0, 0
	res.digest = fnvOffset
	for tick := 1; tick <= ticks; tick++ {
		measuring := tick > warmTicks
		cs := vw.StepCrossings(opt.TickSec)
		for _, c := range cs {
			if measuring {
				crossings++
				if pl.ZoneHost(c.From) != pl.ZoneHost(c.To) {
					crossHandoffs++
				}
			}
			if err := mach.Exec(&repair.Event{Op: repair.OpMove, ID: ids[c.Avatar], Zone: b.ZoneID(c.To)}); err != nil {
				return res, err
			}
			if err := mach.Exec(&repair.Event{Op: repair.OpAddAdjacency, Zone: b.ZoneID(c.From), Zone2: b.ZoneID(c.To), Weight: opt.CrossingMbps}); err != nil {
				return res, err
			}
			touched[c.From], touched[c.To] = true, true
		}
		pops := vw.Populations()
		// Population-dependent bandwidth: reprice the zones the tick's
		// crossings changed (every resident's RT shifts with the zone count).
		for z, t := range touched {
			if !t {
				continue
			}
			touched[z] = false
			if err := mach.Exec(&repair.Event{Op: repair.OpSetZoneBW, Zone: b.ZoneID(z), RT: cfg.ClientRTMbps(pops[z])}); err != nil {
				return res, err
			}
		}
		if tick%optEvery == 0 {
			pl.Optimize(opt.OptimizeRounds)
		}
		if measuring {
			broadcastInt += pl.TrafficCut() * opt.TickSec
			pqosInt += pl.PQoS() * opt.TickSec
		}
		for _, p := range pops {
			res.digest = mix(res.digest, uint64(p))
		}
		for _, e := range pl.Problem().Adjacency.Edges() {
			res.digest = mix(res.digest, uint64(e.A)<<32|uint64(e.B))
			res.digest = mix(res.digest, math.Float64bits(e.W))
		}
		for _, s := range pl.ZoneServers() {
			res.digest = mix(res.digest, uint64(s))
		}
	}
	res.broadcastMbps = broadcastInt / measuredSec
	res.crossTrafficMbps = res.broadcastMbps + opt.HandoffMbits*float64(crossHandoffs)/measuredSec
	if crossings > 0 {
		res.crossHandoffFrac = float64(crossHandoffs) / float64(crossings)
	}
	res.pqos = pqosInt / measuredSec
	res.zoneHandoffs = pl.Stats().ZoneHandoffs
	return res, nil
}

// Traffic runs the comparison with GreZ-GreC.
func Traffic(setup Setup, opt TrafficOptions) (*TrafficResult, error) {
	setup = setup.withDefaults()
	opt = opt.withDefaults()
	cfg, err := dve.ParseScenario(dve.DefaultConfig(), opt.Scenario)
	if err != nil {
		return nil, err
	}
	type out struct {
		arms [2]trafficArm
	}
	reps, err := runner.Run(setup.Seed, setup.Reps, func(rep int, rng *xrand.RNG) (out, error) {
		var o out
		worldSeed, mobSeed, solveSeed := rng.Split().Seed(), rng.Split().Seed(), rng.Split().Seed()
		for arm := 0; arm < 2; arm++ {
			lambda := 0.0
			if arm == 1 {
				lambda = opt.Weight
			}
			r, err := runTrafficArm(setup, opt, cfg, lambda, worldSeed, mobSeed, solveSeed)
			if err != nil {
				return out{}, fmt.Errorf("rep %d arm %d: %w", rep, arm, err)
			}
			o.arms[arm] = r
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	res := &TrafficResult{
		DelayOnly:    TrafficMode{Name: "delay-only (λ=0)"},
		TrafficAware: TrafficMode{Name: fmt.Sprintf("traffic-aware (λ=%g)", opt.Weight)},
		HorizonSec:   opt.HorizonSec,
		Weight:       opt.Weight,
	}
	for _, r := range reps {
		for arm, m := range []*TrafficMode{&res.DelayOnly, &res.TrafficAware} {
			m.CrossTrafficMbps.Add(r.arms[arm].crossTrafficMbps)
			m.BroadcastMbps.Add(r.arms[arm].broadcastMbps)
			m.CrossHandoffFrac.Add(r.arms[arm].crossHandoffFrac)
			m.TimeAvgPQoS.Add(r.arms[arm].pqos)
			m.ZoneHandoffs.Add(float64(r.arms[arm].zoneHandoffs))
		}
	}
	if opt.JSONOut != nil {
		if err := res.WriteJSON(opt.JSONOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Reduction is the traffic-aware arm's fractional saving in measured
// cross-server traffic against the delay-only baseline.
func (r *TrafficResult) Reduction() float64 {
	base := r.DelayOnly.CrossTrafficMbps.Mean()
	if base == 0 {
		return 0
	}
	return 1 - r.TrafficAware.CrossTrafficMbps.Mean()/base
}

// PQoSDelta is traffic-aware minus delay-only time-averaged pQoS.
func (r *TrafficResult) PQoSDelta() float64 {
	return r.TrafficAware.TimeAvgPQoS.Mean() - r.DelayOnly.TimeAvgPQoS.Mean()
}

// String renders the comparison.
func (r *TrafficResult) String() string {
	tb := metrics.NewTable("mode", "cross-traffic Mbps", "broadcast Mbps", "cross-handoff frac", "time-avg pQoS", "zone handoffs/run")
	for _, m := range []*TrafficMode{&r.DelayOnly, &r.TrafficAware} {
		tb.AddRow(
			m.Name,
			fmt.Sprintf("%.2f", m.CrossTrafficMbps.Mean()),
			fmt.Sprintf("%.2f", m.BroadcastMbps.Mean()),
			fmt.Sprintf("%.3f", m.CrossHandoffFrac.Mean()),
			fmt.Sprintf("%.4f", m.TimeAvgPQoS.Mean()),
			fmt.Sprintf("%.1f", m.ZoneHandoffs.Mean()))
	}
	var b strings.Builder
	b.WriteString("Traffic: delay-only vs traffic-aware assignment under mobility-driven interaction (DESIGN.md §15)\n")
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "traffic-aware vs delay-only: %.1f%% less cross-server traffic, %+.4f pQoS\n",
		100*r.Reduction(), r.PQoSDelta())
	return b.String()
}

// WriteJSON emits the BENCH_traffic.json document shape.
func (r *TrafficResult) WriteJSON(w io.Writer) error {
	type mode struct {
		CrossTrafficMbps float64 `json:"cross_server_traffic_mbps"`
		BroadcastMbps    float64 `json:"broadcast_mbps"`
		CrossHandoffFrac float64 `json:"cross_handoff_frac"`
		TimeAvgPQoS      float64 `json:"time_avg_pqos"`
		ZoneHandoffs     float64 `json:"zone_handoffs_per_run"`
	}
	render := func(m *TrafficMode) mode {
		return mode{
			CrossTrafficMbps: m.CrossTrafficMbps.Mean(),
			BroadcastMbps:    m.BroadcastMbps.Mean(),
			CrossHandoffFrac: m.CrossHandoffFrac.Mean(),
			TimeAvgPQoS:      m.TimeAvgPQoS.Mean(),
			ZoneHandoffs:     m.ZoneHandoffs.Mean(),
		}
	}
	doc := struct {
		Description  string  `json:"description"`
		HorizonSec   float64 `json:"horizon_sec"`
		Weight       float64 `json:"traffic_weight"`
		DelayOnly    mode    `json:"delay_only"`
		TrafficAware mode    `json:"traffic_aware"`
		Reduction    float64 `json:"cross_traffic_reduction"`
		PQoSDelta    float64 `json:"pqos_delta"`
	}{
		Description:  "Inter-server traffic objective (DESIGN.md §15) under a mobility-driven workload: avatars on a zone grid with hotspot attraction and correlated group movement produce zone crossings that churn the repair planner and accumulate observed interaction weights; delay-only (λ=0, the paper's objective) vs traffic-aware assignment on identical world, mobility and solver seeds.",
		HorizonSec:   r.HorizonSec,
		Weight:       r.Weight,
		DelayOnly:    render(&r.DelayOnly),
		TrafficAware: render(&r.TrafficAware),
		Reduction:    r.Reduction(),
		PQoSDelta:    r.PQoSDelta(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
